"""Resource manager: allocation, eviction, and re-provisioning of containers.

Mirrors the experimental setup of §5.1.1: a job asks for a fixed number of
reserved and transient containers; transient containers receive lifetimes
sampled from a :class:`~repro.trace.models.LifetimeModel`; and whenever a
transient container is evicted, a replacement with a freshly sampled lifetime
is provided immediately (each job uses a small share of the datacenter, so
idle resources are always available somewhere else).

Rare machine faults (§3.2.6) can additionally be injected on reserved
containers to exercise engines' fault-tolerance paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.cluster.events import Simulator
from repro.cluster.network import EVICTION_PRIORITY
from repro.cluster.resources import (Container, ContainerKind, NodeSpec,
                                     RESERVED_NODE, TRANSIENT_NODE)
from repro.errors import ResourceError
from repro.obs.events import Eviction
from repro.obs.tracer import Tracer
from repro.trace.models import LifetimeModel

#: Callback invoked when a container comes online.
ContainerCallback = Callable[[Container], None]
#: Callback invoked when a container dies; second argument is the
#: replacement container (None for reserved-container failures).
EvictionCallback = Callable[[Container, Optional[Container]], None]


@dataclass(frozen=True)
class TransientPool:
    """A class of transient resources with an estimated lifetime (§6).

    The Harvest-style extension: the resource manager categorizes harvested
    resources by how long they are expected to survive, letting schedulers
    place heavy work on the longer-lived classes. ``expected_lifetime`` is
    the hint exposed to schedulers; actual lifetimes are sampled from
    ``lifetime_model``. ``price_weight`` is the relative cost of the
    class — the portfolio predictor (:mod:`repro.predict.portfolio`)
    ranks classes by expected lifetime per unit price.
    """

    name: str
    count: int
    lifetime_model: LifetimeModel
    expected_lifetime: float
    price_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ResourceError("pool count must be non-negative")
        if self.expected_lifetime <= 0:
            raise ResourceError("expected lifetime must be positive")
        if self.price_weight <= 0:
            raise ResourceError("price weight must be positive")


class ResourceManager:
    """Allocates containers and drives the eviction schedule."""

    def __init__(self, sim: Simulator, lifetime_model: LifetimeModel,
                 rng: np.random.Generator,
                 reserved_spec: NodeSpec = RESERVED_NODE,
                 transient_spec: NodeSpec = TRANSIENT_NODE,
                 replace_evicted: bool = True,
                 tracer: Optional[Tracer] = None) -> None:
        self._sim = sim
        self._lifetimes = lifetime_model
        self._rng = rng
        self.tracer = tracer
        self._reserved_spec = reserved_spec
        self._transient_spec = transient_spec
        self._replace_evicted = replace_evicted
        self._on_container: Optional[ContainerCallback] = None
        self._on_eviction: Optional[EvictionCallback] = None
        # Attached lifetime predictor (repro.predict), fed every witnessed
        # eviction so online models (hazard) learn the cluster's actual
        # reclamation dynamics. None by default: nothing observes, nothing
        # changes.
        self._predictor = None
        #: Every container ever launched, in launch order (grows with each
        #: replacement; kept for history/tests).
        self.containers: list[Container] = []
        self._pool_of: dict[int, TransientPool] = {}
        # Slot-indexed parallel arrays of the *current* fleet: one dense
        # slot per allocated position, the replacement of an evicted
        # container inheriting its predecessor's slot. Sweeps over live
        # capacity (accessors, eviction bookkeeping) touch these fixed-size
        # arrays instead of the ever-growing history list.
        self.slot_kind: list[ContainerKind] = []
        self.slot_alive: list[bool] = []
        self.slot_launched: list[float] = []
        self.slot_container: list[Container] = []
        self.evictions = 0
        self.failures = 0

    # ------------------------------------------------------------------
    # listener registration

    def on_container(self, callback: ContainerCallback) -> None:
        """Register the callback fired when any container comes online."""
        self._on_container = callback

    def on_eviction(self, callback: EvictionCallback) -> None:
        """Register the callback fired when a container dies."""
        self._on_eviction = callback

    def attach_predictor(self, predictor) -> None:
        """Feed every witnessed eviction to a
        :class:`~repro.predict.base.LifetimePredictor` as an observed
        lifetime (the predictor's online learning stream)."""
        self._predictor = predictor

    # ------------------------------------------------------------------
    # allocation

    def allocate(self, num_reserved: int, num_transient: int) -> None:
        """Bring the requested containers online at the current time."""
        if num_reserved < 0 or num_transient < 0:
            raise ResourceError("container counts must be non-negative")
        for _ in range(num_reserved):
            self._launch(ContainerKind.RESERVED)
        for _ in range(num_transient):
            self._launch(ContainerKind.TRANSIENT)

    def allocate_pools(self, num_reserved: int,
                       pools: "list[TransientPool]") -> None:
        """Bring reserved containers plus heterogeneous transient pools
        online (§6 extension). Replacements stay within their pool."""
        if num_reserved < 0:
            raise ResourceError("container counts must be non-negative")
        for _ in range(num_reserved):
            self._launch(ContainerKind.RESERVED)
        for pool in pools:
            for _ in range(pool.count):
                self._launch(ContainerKind.TRANSIENT, pool=pool)

    def reserved_containers(self) -> list[Container]:
        return [c for c, kind, alive in zip(self.slot_container,
                                            self.slot_kind, self.slot_alive)
                if kind is ContainerKind.RESERVED and alive]

    def transient_containers(self) -> list[Container]:
        return [c for c, kind, alive in zip(self.slot_container,
                                            self.slot_kind, self.slot_alive)
                if kind is ContainerKind.TRANSIENT and alive]

    def _launch(self, kind: ContainerKind,
                pool: "Optional[TransientPool]" = None,
                slot: Optional[int] = None) -> Container:
        now = self._sim.now
        if slot is None:
            slot = len(self.slot_container)
            self.slot_kind.append(kind)
            self.slot_alive.append(True)
            self.slot_launched.append(now)
            self.slot_container.append(None)  # type: ignore[arg-type]
        else:
            self.slot_alive[slot] = True
            self.slot_launched[slot] = now
        if kind is ContainerKind.RESERVED:
            container = Container(kind=kind, spec=self._reserved_spec,
                                  launched_at=now, slot=slot)
        else:
            model = pool.lifetime_model if pool is not None \
                else self._lifetimes
            # Every launch goes through sample_at: wave-pinned models
            # (repro.cluster.tenancy) need the launch time so replacements
            # still die on cluster-wide wave ticks, and time-homogeneous
            # models delegate back to sample() unchanged.
            lifetime = model.sample_at(now, self._rng)
            container = Container(
                kind=kind, spec=self._transient_spec, lifetime=lifetime,
                launched_at=now, slot=slot,
                pool=pool.name if pool is not None else None,
                expected_lifetime=(pool.expected_lifetime
                                   if pool is not None else math.inf))
            if pool is not None:
                self._pool_of[container.container_id] = pool
            if math.isfinite(lifetime):
                # Eviction ticks are the archetypal wheel population: one
                # minute-scale timer per transient container, never
                # cancelled. Those due a bucket width or more out park on
                # the simulator's wheel, so at 10k containers they never
                # dominate the heap.
                self._sim.schedule_at(now + lifetime,
                                      lambda: self._evict(container),
                                      priority=EVICTION_PRIORITY)
        self.slot_container[slot] = container
        self.containers.append(container)
        if self._on_container is not None:
            self._on_container(container)
        return container

    # ------------------------------------------------------------------
    # evictions and failures

    def _evict(self, container: Container) -> None:
        if not container.alive:
            return
        container.evict(self._sim.now)
        self.slot_alive[container.slot] = False
        self.evictions += 1
        if self._predictor is not None:
            self._predictor.observe(self._sim.now - container.launched_at)
        if self.tracer is not None:
            self.tracer.emit(Eviction(
                time=self._sim.now, container=container.container_id,
                resource="transient", cause="eviction",
                lifetime=container.lifetime))
        replacement: Optional[Container] = None
        if self._replace_evicted:
            pool = self._pool_of.get(container.container_id)
            replacement = self._launch(ContainerKind.TRANSIENT, pool=pool,
                                       slot=container.slot)
        if self._on_eviction is not None:
            self._on_eviction(container, replacement)

    def inject_failure(self, container: Container,
                       replace: bool = True) -> Optional[Container]:
        """Kill a container with a machine fault (§3.2.6).

        Unlike evictions, faults can hit reserved containers. A replacement
        of the same kind is provisioned when ``replace`` is True.
        """
        if not container.alive:
            raise ResourceError(f"{container!r} is already dead")
        container.fail(self._sim.now)
        if container.slot >= 0:
            self.slot_alive[container.slot] = False
        self.failures += 1
        if self.tracer is not None:
            self.tracer.emit(Eviction(
                time=self._sim.now, container=container.container_id,
                resource=("reserved" if container.is_reserved
                          else "transient"),
                cause="fault", lifetime=container.lifetime))
        replacement = (self._launch(container.kind,
                                    slot=(container.slot
                                          if container.slot >= 0 else None))
                       if replace else None)
        if self._on_eviction is not None:
            self._on_eviction(container, replacement)
        return replacement

    def schedule_failure(self, container: Container, delay: float,
                         replace: bool = True) -> None:
        """Inject a fault ``delay`` seconds from now (if still alive)."""

        def fire() -> None:
            if container.alive:
                self.inject_failure(container, replace=replace)

        self._sim.schedule_at(self._sim.now + delay, fire,
                              priority=EVICTION_PRIORITY)


# ----------------------------------------------------------------------
# multi-tenant container leases (repro.cluster.tenancy)


@dataclass
class ContainerLease:
    """One container slot granted to one job of one tenant.

    Leases are *namespaced*: every lease records the ``job_id`` and
    ``tenant`` it was granted to, and :class:`LeasePool` only ever
    releases or revokes a lease through its owning job — one tenant's
    capacity can never be returned (or charged) through another's
    bookkeeping. ``revoked_at`` marks leases torn down by a correlated
    eviction wave rather than by job completion.
    """

    lease_id: int
    job_id: str
    tenant: str
    kind: ContainerKind
    granted_at: float
    released_at: Optional[float] = None
    revoked_at: Optional[float] = None
    #: Dense pool slot this lease occupies (reserved slots first, then
    #: transient). A wave replacement inherits the revoked lease's slot.
    slot: int = -1

    @property
    def active(self) -> bool:
        return self.released_at is None

    def seconds_held(self, now: float) -> float:
        """Container-seconds this lease has accrued (up to ``now`` while
        active)."""
        end = self.released_at if self.released_at is not None else now
        return max(0.0, end - self.granted_at)


class LeasePool:
    """The shared container pool the inter-job scheduler allocates from.

    Tracks reserved and transient slot capacity, grants namespaced
    :class:`ContainerLease`\\ s per job, accrues per-job and per-tenant
    container-second accounting, and delivers *correlated eviction waves*:
    :meth:`revoke_wave` walks every active transient lease of every
    running job in one call, revokes each with the wave's severity, and
    immediately re-grants replacements to the same job — so one
    revocation wave hits all co-located tenants at the same simulated
    tick, and no job's allocation shrinks (replacements are immediate,
    matching the single-job :class:`ResourceManager` assumption).
    """

    def __init__(self, num_reserved: int, num_transient: int) -> None:
        if num_reserved < 0 or num_transient < 0:
            raise ResourceError("pool capacities must be non-negative")
        self.num_reserved = num_reserved
        self.num_transient = num_transient
        self._next_lease = 0
        self._active: dict[str, list[ContainerLease]] = {}
        self._tenant_of: dict[str, str] = {}
        self.history: list[ContainerLease] = []
        #: (time, severity, {job_id: containers revoked}) per wave tick.
        self.waves: list[tuple[float, float, dict[str, int]]] = []
        # Slot-structured state: reserved slots are [0, R), transient
        # [R, R+T). slot_lease holds the current occupant; the free lists
        # are LIFO stacks (initialized so the first grants take slots in
        # ascending order). All capacity checks and the fair-share
        # container-seconds metric are O(1) counter reads — the mtsweep
        # outer loop used to rescan the whole lease history per scheduling
        # decision.
        self.slot_lease: list[Optional[ContainerLease]] = \
            [None] * (num_reserved + num_transient)
        self._free_reserved = list(range(num_reserved - 1, -1, -1))
        self._free_transient = list(
            range(num_reserved + num_transient - 1, num_reserved - 1, -1))
        self._used_reserved = 0
        self._used_transient = 0
        self._reserved_by_tenant: dict[str, int] = {}
        #: ``(time, delta_reserved)`` per elastic conversion (the
        #: repro.predict.elastic controller's applied decisions).
        self.resizes: list[tuple[float, int]] = []
        # job/tenant -> [completed_seconds, active_count, granted_at_sum]:
        # container-seconds at time t = completed + active*t - granted_sum.
        self._job_acct: dict[str, list[float]] = {}
        self._tenant_acct: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # capacity

    @property
    def reserved_free(self) -> int:
        return self.num_reserved - self._used_reserved

    @property
    def transient_free(self) -> int:
        return self.num_transient - self._used_transient

    def reserved_in_use(self, tenant: str) -> int:
        """Active reserved leases held by one tenant (the quantity the
        reserved-quota policy bounds)."""
        return self._reserved_by_tenant.get(tenant, 0)

    def fits(self, num_reserved: int, num_transient: int) -> bool:
        return (self.reserved_free >= num_reserved
                and self.transient_free >= num_transient)

    def active_jobs(self) -> list[str]:
        return sorted(self._active)

    # ------------------------------------------------------------------
    # elastic resizing (repro.predict.elastic)

    def convert_transient_to_reserved(self, count: int, now: float) -> int:
        """Re-dedicate ``count`` *free* transient slots as reserved.

        Slot kind is defined by free-list membership plus the occupying
        lease's kind — not by index ranges — so a conversion just moves
        free slot ids between the LIFO stacks and adjusts the capacity
        counters. Returns ``count``; raises
        :class:`~repro.errors.ResourceError` when fewer free transient
        slots exist (the controller must only convert idle capacity).
        """
        if count < 0:
            raise ResourceError("conversion count must be non-negative")
        if count > len(self._free_transient):
            raise ResourceError(
                f"cannot convert {count} transient slots: only "
                f"{len(self._free_transient)} free")
        for _ in range(count):
            self._free_reserved.append(self._free_transient.pop())
        self.num_transient -= count
        self.num_reserved += count
        if count:
            self.resizes.append((now, count))
        return count

    def convert_reserved_to_transient(self, count: int, now: float) -> int:
        """Inverse of :meth:`convert_transient_to_reserved`."""
        if count < 0:
            raise ResourceError("conversion count must be non-negative")
        if count > len(self._free_reserved):
            raise ResourceError(
                f"cannot convert {count} reserved slots: only "
                f"{len(self._free_reserved)} free")
        for _ in range(count):
            self._free_transient.append(self._free_reserved.pop())
        self.num_reserved -= count
        self.num_transient += count
        if count:
            self.resizes.append((now, -count))
        return count

    # ------------------------------------------------------------------
    # grant / release

    def _grant(self, job_id: str, kind: ContainerKind, now: float,
               slot: Optional[int] = None) -> ContainerLease:
        tenant = self._tenant_of[job_id]
        if slot is None:
            slot = (self._free_reserved.pop()
                    if kind is ContainerKind.RESERVED
                    else self._free_transient.pop())
        lease = ContainerLease(lease_id=self._next_lease, job_id=job_id,
                               tenant=tenant, kind=kind,
                               granted_at=now, slot=slot)
        self._next_lease += 1
        self._active[job_id].append(lease)
        self.history.append(lease)
        self.slot_lease[slot] = lease
        if kind is ContainerKind.RESERVED:
            self._used_reserved += 1
            self._reserved_by_tenant[tenant] = \
                self._reserved_by_tenant.get(tenant, 0) + 1
        else:
            self._used_transient += 1
        for acct_map, key in ((self._job_acct, job_id),
                              (self._tenant_acct, tenant)):
            acct = acct_map.get(key)
            if acct is None:
                acct_map[key] = [0.0, 1, now]
            else:
                acct[1] += 1
                acct[2] += now
        return lease

    def _end_lease(self, lease: ContainerLease, now: float,
                   free_slot: bool) -> None:
        """Close out one active lease's slot, counters, and accounting.
        ``free_slot`` is False when the caller hands the slot straight to
        a replacement (wave revocations)."""
        lease.released_at = now
        slot = lease.slot
        self.slot_lease[slot] = None
        if lease.kind is ContainerKind.RESERVED:
            self._used_reserved -= 1
            self._reserved_by_tenant[lease.tenant] -= 1
            if free_slot:
                self._free_reserved.append(slot)
        else:
            self._used_transient -= 1
            if free_slot:
                self._free_transient.append(slot)
        held = now - lease.granted_at
        for acct_map, key in ((self._job_acct, lease.job_id),
                              (self._tenant_acct, lease.tenant)):
            acct = acct_map[key]
            acct[0] += held
            acct[1] -= 1
            acct[2] -= lease.granted_at

    def lease(self, job_id: str, tenant: str, num_reserved: int,
              num_transient: int, now: float) -> list[ContainerLease]:
        """Grant a job its whole allocation atomically (all or nothing)."""
        if job_id in self._active:
            raise ResourceError(f"job {job_id!r} already holds leases")
        if not self.fits(num_reserved, num_transient):
            raise ResourceError(
                f"insufficient capacity for {job_id!r}: "
                f"{num_reserved}R+{num_transient}T requested, "
                f"{self.reserved_free}R+{self.transient_free}T free")
        self._active[job_id] = []
        self._tenant_of[job_id] = tenant
        return ([self._grant(job_id, ContainerKind.RESERVED, now)
                 for _ in range(num_reserved)]
                + [self._grant(job_id, ContainerKind.TRANSIENT, now)
                   for _ in range(num_transient)])

    def release_job(self, job_id: str, now: float) -> float:
        """Release every lease the job still holds; returns the job's
        total accrued container-seconds (including revoked leases)."""
        if job_id not in self._active:
            raise ResourceError(f"job {job_id!r} holds no leases")
        for lease in self._active.pop(job_id):
            self._end_lease(lease, now, free_slot=True)
        return self.container_seconds(job_id=job_id, now=now)

    # ------------------------------------------------------------------
    # correlated eviction waves

    def revoke_wave(self, now: float, severity: float,
                    rng: np.random.Generator) -> dict[str, int]:
        """Deliver one correlated eviction wave across *all* running jobs.

        Every active transient lease — regardless of owning tenant — is
        revoked with probability ``severity`` in this single call, at this
        single timestamp, and a replacement lease is granted to the same
        job in the same tick. Reserved leases are untouched. Returns
        ``{job_id: containers revoked}`` for every affected job.
        """
        if not 0.0 < severity <= 1.0:
            raise ResourceError("wave severity must lie in (0, 1]")
        revoked: dict[str, int] = {}
        for job_id in sorted(self._active):
            for lease in list(self._active[job_id]):
                if lease.kind is not ContainerKind.TRANSIENT:
                    continue
                if severity < 1.0 and float(rng.random()) >= severity:
                    continue
                self._end_lease(lease, now, free_slot=False)
                lease.revoked_at = now
                self._active[job_id].remove(lease)
                # The replacement inherits the revoked slot: the fleet's
                # slot occupancy is unchanged by a wave, exactly like the
                # single-job ResourceManager's in-place replacements.
                self._grant(job_id, ContainerKind.TRANSIENT, now,
                            slot=lease.slot)
                revoked[job_id] = revoked.get(job_id, 0) + 1
        self.waves.append((now, severity, revoked))
        return revoked

    # ------------------------------------------------------------------
    # accounting

    def container_seconds(self, job_id: Optional[str] = None,
                          tenant: Optional[str] = None,
                          now: float = 0.0) -> float:
        """Accrued container-seconds, filtered by job and/or tenant.

        Counts completed and revoked leases in full and active leases up
        to ``now`` — the consumption metric weighted fair-share ranks
        tenants by. O(1) via the incremental accounting the grant/release
        paths maintain (``completed + active*now - granted_sum``), so the
        mtsweep outer loop no longer rescans the lease history on every
        scheduling decision.
        """
        if job_id is not None:
            if tenant is not None and self._tenant_of.get(job_id) != tenant:
                return 0.0
            acct = self._job_acct.get(job_id)
        elif tenant is not None:
            acct = self._tenant_acct.get(tenant)
        else:
            acct = [0.0, 0, 0.0]
            for each in self._job_acct.values():
                acct[0] += each[0]
                acct[1] += each[1]
                acct[2] += each[2]
        if acct is None:
            return 0.0
        return acct[0] + acct[1] * now - acct[2]
