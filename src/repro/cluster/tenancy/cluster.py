"""The cluster-level event loop of the multi-tenant simulation.

Two simulation levels compose here. The **outer** level is a
discrete-event loop (on the same :class:`~repro.cluster.events.Simulator`
the engines use) over job-granularity events: arrivals join the queue,
the inter-job policy picks jobs to start whenever capacity changes,
correlated eviction waves sweep the :class:`~repro.cluster.manager.LeasePool`,
and completions release leases. The **inner** level is one real engine
simulation per dispatched job, injected as the ``execute_batch`` callback;
each job's eviction schedule is the cluster-wide wave schedule shifted to
its own start time, so all jobs running at a wall-clock wave lose
containers at the same absolute instant even though they simulate
independently.

Everything is deterministic in ``TenancyConfig.seed``: arrivals, waves,
per-job engine seeds, and revocation draws each use their own fixed
substream, and dispatch order is defined by the policy over an
arrival-ordered queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cluster.events import Simulator
from repro.cluster.manager import LeasePool
from repro.cluster.tenancy.arrivals import (ArrivalConfig,
                                            DiurnalArrivalProcess,
                                            EvictionWaveProcess, JobRequest)
from repro.cluster.tenancy.policies import (InterJobPolicy,
                                            ReservedQuotaPolicy, make_policy)
from repro.errors import SimulationError
from repro.predict.elastic import ElasticReserveController

#: Wave schedules extend this far past the last arrival so jobs that queue
#: behind a long backlog still see correlated reclamation while running.
WAVE_SLACK_SECONDS = 24 * 3600.0

#: One job's eviction schedule: ``(offset_from_start, severity)`` pairs.
WaveOffsets = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class JobOutcome:
    """What the injected executor reports back for one dispatched job."""

    jct_seconds: float
    completed: bool
    evictions: int = 0


#: Runs a batch of dispatched jobs (each with its wave schedule relative
#: to its start time) and returns one :class:`JobOutcome` per job, in
#: order. ``repro.bench.multitenant`` wires this to the cached
#: ``SweepRunner``; tests inject stubs.
BatchExecutor = Callable[[Sequence[tuple[JobRequest, WaveOffsets]]],
                         Sequence[JobOutcome]]


@dataclass
class JobRecord:
    """Lifecycle of one job through the multi-tenant cluster."""

    request: JobRequest
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    completed: bool = False
    #: Evictions observed inside the job's own engine simulation.
    evictions: int = 0
    #: Outer waves that revoked at least one of this job's leases.
    waves_hit: int = 0
    #: Total leases revoked from this job by outer waves.
    containers_revoked: int = 0
    container_seconds: float = 0.0

    @property
    def job_id(self) -> str:
        return self.request.job_id

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting between arrival and dispatch."""
        if self.start_time is None:
            raise SimulationError(f"{self.job_id} never started")
        return self.start_time - self.request.arrival_time

    @property
    def run_seconds(self) -> float:
        """Time spent actually executing."""
        if self.start_time is None or self.finish_time is None:
            raise SimulationError(f"{self.job_id} never finished")
        return self.finish_time - self.start_time

    @property
    def jct_seconds(self) -> float:
        """Job completion time: queueing delay plus run time."""
        if self.finish_time is None:
            raise SimulationError(f"{self.job_id} never finished")
        return self.finish_time - self.request.arrival_time


@dataclass(frozen=True)
class TenancyConfig:
    """Configuration of one multi-tenant cluster run."""

    num_reserved: int = 8
    num_transient: int = 48
    policy: str = "fifo"
    eviction: str = "high"
    num_jobs: int = 80
    seed: int = 11
    #: Inner per-job engine time limit (and the window a job's wave
    #: schedule must cover).
    time_limit_minutes: float = 150.0
    #: ``"fixed"`` keeps the reserved/transient split static; ``"elastic"``
    #: lets a :class:`~repro.predict.elastic.ElasticReserveController`
    #: convert free slots between the tiers between dispatches.
    reserve: str = "fixed"
    arrival: ArrivalConfig = field(default_factory=ArrivalConfig)

    def __post_init__(self) -> None:
        if self.num_reserved < 0 or self.num_transient <= 0:
            raise ValueError("cluster needs transient capacity")
        if self.num_jobs <= 0:
            raise ValueError("need at least one job")
        if self.time_limit_minutes <= 0:
            raise ValueError("time limit must be positive")
        if self.reserve not in ("fixed", "elastic"):
            raise ValueError(
                f"unknown reserve mode {self.reserve!r}; "
                f"choose 'fixed' or 'elastic'")


@dataclass(frozen=True)
class TenancyResult:
    """Everything a multi-tenant run produced."""

    config: TenancyConfig
    records: tuple[JobRecord, ...]
    #: The exogenous wave schedule ``(time, severity)``.
    waves: tuple[tuple[float, float], ...]
    pool: LeasePool
    #: How many times the dispatch loop invoked ``execute_batch`` — the
    #: number of pool round-trips a per-batch (cold) executor would pay.
    dispatch_batches: int = 0

    @property
    def makespan(self) -> float:
        return max((r.finish_time for r in self.records
                    if r.finish_time is not None), default=0.0)

    def by_tenant(self) -> dict[str, list[JobRecord]]:
        grouped: dict[str, list[JobRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.tenant, []).append(record)
        return grouped


class MultiTenantCluster:
    """Queues arriving jobs on one shared pool under an inter-job policy.

    ``execute_batch`` receives every job the policy dispatches at one
    simulated instant (with each job's wave schedule re-based to its
    start) and returns their outcomes in order; the cluster schedules the
    completions and keeps the books.

    The loop calls ``execute_batch`` once per dispatch instant — dozens
    to hundreds of times per run, most batches small. Executors should
    therefore hold one warm :class:`~repro.bench.runner.SweepRunner`
    across the whole outer loop (see
    :func:`repro.bench.multitenant.sweep_executor`) rather than paying
    per-batch worker-pool startup.
    """

    def __init__(self, config: TenancyConfig,
                 execute_batch: BatchExecutor,
                 policy: Optional[InterJobPolicy] = None) -> None:
        self.config = config
        self._execute_batch = execute_batch
        self.policy = policy if policy is not None else make_policy(
            config.policy, config.arrival.weights(), config.num_reserved)
        self._sim = Simulator()
        self.pool = LeasePool(config.num_reserved, config.num_transient)
        self._queue: list[JobRequest] = []
        self._records: dict[str, JobRecord] = {}
        self._waves: tuple[tuple[float, float], ...] = ()
        # Independent substreams: arrivals (seed), waves (seed+1),
        # revocation draws (seed+2), so changing e.g. the wave regime
        # never perturbs the arrival schedule.
        self._revoke_rng = np.random.default_rng(config.seed + 2)
        self._dispatch_batches = 0
        self.controller: Optional[ElasticReserveController] = None
        if config.reserve == "elastic":
            self.controller = ElasticReserveController(config.num_reserved)

    # ------------------------------------------------------------------
    # schedule generation and validation

    def _generate(self) -> list[JobRequest]:
        config = self.config
        arrivals = DiurnalArrivalProcess(config.arrival, seed=config.seed)
        requests = arrivals.generate(config.num_jobs, config.num_transient)
        for request in requests:
            if request.num_reserved > config.num_reserved \
                    or request.num_transient > config.num_transient:
                raise SimulationError(
                    f"{request.job_id} demands "
                    f"{request.num_reserved}R+{request.num_transient}T, "
                    f"beyond pool capacity "
                    f"{config.num_reserved}R+{config.num_transient}T")
        if isinstance(self.policy, ReservedQuotaPolicy):
            for request in requests:
                quota = self.policy.quotas.get(request.tenant, 0)
                if request.num_reserved > quota:
                    raise SimulationError(
                        f"{request.job_id} demands {request.num_reserved} "
                        f"reserved containers but tenant "
                        f"{request.tenant!r} has a quota of {quota}; "
                        f"the job could never start")
        horizon = (requests[-1].arrival_time if requests else 0.0) \
            + WAVE_SLACK_SECONDS
        waves = EvictionWaveProcess(
            config.eviction, config.arrival.trace,
            seed=config.seed + 1).generate(horizon)
        self._waves = waves
        return requests

    def _wave_offsets(self, start: float) -> WaveOffsets:
        """The cluster wave schedule re-based to a job starting at
        ``start``, clipped to the job's time-limit window."""
        window = start + self.config.time_limit_minutes * 60.0
        return tuple((round(t - start, 6), severity)
                     for t, severity in self._waves if start < t <= window)

    # ------------------------------------------------------------------
    # event handlers

    def _on_arrival(self, request: JobRequest) -> None:
        self._queue.append(request)
        self._try_dispatch()

    def _on_wave(self, severity: float) -> None:
        now = self._sim.now
        revoked = self.pool.revoke_wave(now, severity, self._revoke_rng)
        for job_id, count in revoked.items():
            record = self._records[job_id]
            record.waves_hit += 1
            record.containers_revoked += count
        if self.controller is not None:
            self.controller.record_revocations(now, sum(revoked.values()))

    def _on_completion(self, job_id: str) -> None:
        now = self._sim.now
        record = self._records[job_id]
        record.finish_time = now
        record.container_seconds = self.pool.release_job(job_id, now)
        self._try_dispatch()

    def _try_dispatch(self) -> None:
        now = self._sim.now
        if self.controller is not None:
            # Rebalancing may unblock the head of the queue before the
            # policy looks at the pool.
            self.controller.rebalance(now, self.pool, self._queue)
        picked = self.policy.select(tuple(self._queue), self.pool, now)
        if picked:
            batch = []
            for request in picked:
                self._queue.remove(request)
                self.pool.lease(request.job_id, request.tenant,
                                request.num_reserved, request.num_transient,
                                now)
                self._records[request.job_id] = JobRecord(
                    request=request, start_time=now)
                batch.append((request, self._wave_offsets(now)))
            self._dispatch_batches += 1
            outcomes = self._execute_batch(batch)
            if len(outcomes) != len(batch):
                raise SimulationError(
                    f"executor returned {len(outcomes)} outcomes "
                    f"for {len(batch)} jobs")
            for (request, _), outcome in zip(batch, outcomes):
                record = self._records[request.job_id]
                record.completed = bool(outcome.completed)
                record.evictions = int(outcome.evictions)
                self._sim.schedule_at(
                    now + float(outcome.jct_seconds),
                    lambda job_id=request.job_id: self._on_completion(job_id))

    # ------------------------------------------------------------------
    # driver

    def run(self) -> TenancyResult:
        """Simulate the whole run; returns once every job has finished."""
        requests = self._generate()
        if self.controller is not None and requests:
            # No conversion may ever make a generated demand unsatisfiable.
            self.controller.set_floors(
                max(r.num_reserved for r in requests),
                max(r.num_transient for r in requests))
        for request in requests:
            self._sim.schedule_at(
                request.arrival_time,
                lambda request=request: self._on_arrival(request))
        for time, severity in self._waves:
            self._sim.schedule_at(
                time, lambda severity=severity: self._on_wave(severity),
                priority=-1)
        self._sim.run()
        if self._queue:
            stuck = ", ".join(r.job_id for r in self._queue[:5])
            raise SimulationError(
                f"{len(self._queue)} jobs never dispatched ({stuck}...); "
                f"the policy deadlocked")
        records = tuple(self._records[r.job_id] for r in requests)
        return TenancyResult(config=self.config, records=records,
                             waves=self._waves, pool=self.pool,
                             dispatch_batches=self._dispatch_batches)
