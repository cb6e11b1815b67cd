"""Parallel, cached experiment runner: serial, or one capped worker pool.

The paper's evaluation protocol (§5.1.3) sweeps engines x eviction rates
x cluster sizes, five times over — dozens to hundreds of independent
simulations. A :class:`RunSpec` is a picklable, declarative simulation
(workload + engine + cluster + seed) with a stable content hash; it names
engines by registry name and carries options as JSON scalars, so it
pickles for workers and keys the cache. A :class:`SweepRunner` runs lists
of specs and returns results in spec order, on one of two paths:

* ``workers=0`` (the default): serially, in-process.
* ``workers=N``: on one warm spawn pool of ``min(N, os.cpu_count())``
  workers that lives across ``run()`` calls. Each worker keeps a
  per-process :class:`_BuildCache`, and dispatch is chunked: one pickle
  round-trip per chunk, not per spec.

Each simulation seeds its own ``Generator``, but a pooled result equals
the serial one *only when the spec's result does not depend on process
history*. Some do: the process-wide container-id counter
(``itertools.count()`` in :mod:`repro.cluster.resources`) feeds Pado's
many-to-one routing (``executor_id % n`` in ``_push_to_root``), so such a
simulation can differ with what ran before it in its process, and a pool
changes which specs share a process. ``tests/bench/test_sweep_pool.py``
pins that defect with a strict ``xfail``.

Completed results are memoized in an on-disk JSON cache keyed by ``(spec
hash, code fingerprint)``, fronted by an in-memory LRU; any code change
re-simulates, and unreadable entries are counted as corrupt (then
re-simulated and overwritten), never silently as misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import tempfile
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.engines.base import ClusterConfig, EngineBase, JobResult

#: Option values allowed in a spec: must survive a JSON round-trip intact.
_SCALAR_TYPES = (bool, int, float, str, type(None))

#: Start method for worker pools: ``spawn`` workers are interpreter-fresh
#: (no inherited module state or tracer registrations). Spawn startup is
#: expensive (~0.5 s/worker), so the pool is warm: paid once per runner.
DEFAULT_MP_CONTEXT = "spawn"


def _freeze_options(options: Optional[dict]) -> tuple:
    """Normalize an options mapping to sorted, hashable ``(key, value)``
    pairs, rejecting values that would not survive the JSON cache."""
    if not options:
        return ()
    for key, value in options.items():
        if not isinstance(key, str):
            raise TypeError(f"option names must be strings, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"option {key!r} must be a JSON scalar, got {value!r}")
    return tuple(sorted(options.items()))


@dataclass(frozen=True)
class PoolSpec:
    """Declarative form of a §6 :class:`~repro.cluster.manager.TransientPool`
    with memoryless lifetimes (the form the ablations use)."""

    name: str
    count: int
    mean_lifetime_seconds: float


@dataclass(frozen=True)
class RunSpec:
    """One simulation: workload, engine, cluster, seed, and cutoff.

    Every field is declarative (strings, numbers, tuples) so the spec is
    picklable, hashable, and has a stable JSON content hash. Engines are
    named (``pado``, ``spark``, ``spark-checkpoint``); ``engine_options``
    carries constructor/runtime knobs (for Pado these are
    ``PadoRuntimeConfig`` fields, with ``scheduling_policy`` given by
    policy name, e.g. ``"lifetime-aware"``).
    """

    workload: str
    engine: str
    scale: Optional[float] = None
    seed: int = 11
    time_limit_minutes: float = 150.0
    num_reserved: int = 5
    num_transient: int = 40
    eviction: str = "none"
    engine_options: tuple = ()
    transient_pools: Optional[tuple] = None
    #: Multi-tenant runs pin the job's evictions to the cluster-wide wave
    #: times: ``(offset_seconds, severity)`` pairs relative to the job's
    #: start (:class:`~repro.trace.models.WaveLifetimeModel`). Mutually
    #: exclusive with a named ``eviction`` rate and with pools.
    eviction_waves: Optional[tuple] = None

    @classmethod
    def make(cls, workload: str, engine: str, *,
             engine_options: Optional[dict] = None,
             transient_pools: Optional[Sequence[PoolSpec]] = None,
             **fields: Any) -> "RunSpec":
        """Build a spec from a plain options dict and pool list."""
        pools = tuple(transient_pools) if transient_pools else None
        return cls(workload=workload, engine=engine,
                   engine_options=_freeze_options(engine_options),
                   transient_pools=pools, **fields)

    def content_hash(self) -> str:
        """Stable hex digest of the spec's canonical JSON form."""
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def options(self) -> dict:
        return dict(self.engine_options)


def spec_to_dict(spec: RunSpec) -> dict:
    """JSON-safe dict form of a spec (cache-entry metadata)."""
    return dataclasses.asdict(spec)


# ----------------------------------------------------------------------
# spec -> runnable objects

def engine_spec(engine: Union[str, EngineBase]) -> tuple[str, tuple]:
    """``(name, engine_options)`` for an engine name or an instance of one
    of the three registered engines; custom engine classes raise."""
    if isinstance(engine, str):
        return engine, ()
    from repro.core.runtime.engine import PadoEngine
    from repro.core.runtime.master import PadoRuntimeConfig
    from repro.core.runtime.scheduler import LifetimeAwarePolicy
    from repro.engines.spark import SparkEngine
    from repro.engines.spark_checkpoint import SparkCheckpointEngine
    if isinstance(engine, PadoEngine):
        defaults = PadoRuntimeConfig()
        options: dict[str, Any] = {}
        for f in dataclasses.fields(PadoRuntimeConfig):
            value = getattr(engine.config, f.name)
            if value == getattr(defaults, f.name):
                continue
            if f.name == "scheduling_policy":
                if isinstance(value, LifetimeAwarePolicy):
                    value = "lifetime-aware"
                else:
                    raise TypeError(
                        f"cannot spec scheduling policy {value!r}; "
                        f"name it in engine_options instead")
            options[f.name] = value
        return "pado", _freeze_options(options)
    if isinstance(engine, SparkCheckpointEngine):
        options = {}
        if engine.abort_on_fetch_failure is not True:
            options["abort_on_fetch_failure"] = engine.abort_on_fetch_failure
        if engine.store_bandwidth_factor != 0.6:
            options["store_bandwidth_factor"] = engine.store_bandwidth_factor
        return "spark-checkpoint", _freeze_options(options)
    if isinstance(engine, SparkEngine):
        options = {}
        if engine.abort_on_fetch_failure is not True:
            options["abort_on_fetch_failure"] = engine.abort_on_fetch_failure
        return "spark", _freeze_options(options)
    raise TypeError(f"cannot build a RunSpec for engine {engine!r}")


def build_engine(spec: RunSpec) -> EngineBase:
    """Instantiate the engine a spec names."""
    options = spec.options()
    if spec.engine == "pado":
        from repro.core.runtime.engine import PadoEngine
        from repro.core.runtime.master import PadoRuntimeConfig
        policy_name = options.pop("scheduling_policy", None)
        if policy_name is not None:
            if policy_name != "lifetime-aware":
                raise ValueError(
                    f"unknown scheduling policy {policy_name!r}")
            from repro.core.runtime.scheduler import LifetimeAwarePolicy
            options["scheduling_policy"] = LifetimeAwarePolicy()
        return PadoEngine(PadoRuntimeConfig(**options))
    if spec.engine == "spark":
        from repro.engines.spark import SparkEngine
        return SparkEngine(**options)
    if spec.engine == "spark-checkpoint":
        from repro.engines.spark_checkpoint import SparkCheckpointEngine
        return SparkCheckpointEngine(**options)
    raise ValueError(f"unknown engine {spec.engine!r}; "
                     f"choose from pado, spark, spark-checkpoint")


def build_cluster(spec: RunSpec) -> ClusterConfig:
    """Instantiate the simulated cluster a spec describes."""
    from repro.trace.models import (EvictionRate, ExponentialLifetimeModel,
                                    WaveLifetimeModel)
    pools = None
    if spec.transient_pools:
        from repro.cluster.manager import TransientPool
        pools = tuple(
            TransientPool(p.name, p.count,
                          ExponentialLifetimeModel(p.mean_lifetime_seconds),
                          p.mean_lifetime_seconds)
            for p in spec.transient_pools)
    eviction: Any = EvictionRate(spec.eviction)
    if spec.eviction_waves is not None:
        if spec.eviction != "none":
            raise ValueError(
                "eviction_waves replaces the lifetime model; "
                "set eviction='none' alongside it")
        if pools is not None:
            raise ValueError("eviction_waves and transient_pools "
                             "cannot be combined")
        eviction = WaveLifetimeModel(spec.eviction_waves)
    return ClusterConfig(num_reserved=spec.num_reserved,
                         num_transient=spec.num_transient,
                         eviction=eviction,
                         transient_pools=pools)


# ----------------------------------------------------------------------
# per-process build cache

class _BuildCache:
    """Memoizes ``build_engine``/``build_cluster``/workload construction
    by the spec's structural key, one instance per process.

    Programs (read-only DAGs), clusters (frozen, stateless lifetime
    models) and engines without a ``scheduling_policy`` option are safe
    to reuse; a configured policy *instance* carries a round-robin cursor
    across runs, so those specs rebuild the engine every time. Entries
    are evicted FIFO past ``capacity`` per table.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._programs: OrderedDict[tuple, Any] = OrderedDict()
        self._engines: OrderedDict[tuple, EngineBase] = OrderedDict()
        self._clusters: OrderedDict[tuple, ClusterConfig] = OrderedDict()

    def _lookup(self, table: OrderedDict, key: tuple, build) -> Any:
        try:
            value = table[key]
            self.hits += 1
            return value
        except KeyError:
            self.misses += 1
        value = build()
        table[key] = value
        while len(table) > self.capacity:
            table.popitem(last=False)
        return value

    def program_for(self, spec: RunSpec) -> Any:
        from repro.bench.experiments import make_workload
        return self._lookup(self._programs, (spec.workload, spec.scale),
                            lambda: make_workload(spec.workload, spec.scale))

    def engine_for(self, spec: RunSpec) -> EngineBase:
        if any(key == "scheduling_policy" for key, _ in spec.engine_options):
            return build_engine(spec)
        return self._lookup(self._engines, (spec.engine, spec.engine_options),
                            lambda: build_engine(spec))

    def cluster_for(self, spec: RunSpec) -> ClusterConfig:
        key = (spec.num_reserved, spec.num_transient, spec.eviction,
               spec.transient_pools, spec.eviction_waves)
        return self._lookup(self._clusters, key, lambda: build_cluster(spec))

    def clear(self) -> None:
        self._programs.clear()
        self._engines.clear()
        self._clusters.clear()


#: Process-wide build cache shared by every spec executed in this process.
_BUILD_CACHE = _BuildCache()


def build_cache() -> _BuildCache:
    """This process's build cache (tests inspect/clear it)."""
    return _BUILD_CACHE


def execute_spec(spec: RunSpec) -> JobResult:
    """Run one spec to completion. Program/engine/cluster construction
    is memoized per process (:func:`build_cache`); the simulation itself
    always runs fresh."""
    program = _BUILD_CACHE.program_for(spec)
    engine = _BUILD_CACHE.engine_for(spec)
    return engine.run(program, _BUILD_CACHE.cluster_for(spec), seed=spec.seed,
                      time_limit=spec.time_limit_minutes * 60.0)


# ----------------------------------------------------------------------
# pool worker entry points (module-level so they pickle under spawn)

def _init_worker() -> None:
    """Run once per pool worker: pay the heavy imports and the source-tree
    fingerprint up front so the first chunk measures simulation."""
    import repro.bench.experiments  # noqa: F401
    import repro.cluster.tenancy  # noqa: F401
    import repro.predict  # noqa: F401
    code_fingerprint()


def _pool_probe(delay_seconds: float) -> int:
    """Warm-up task that makes the executor spawn every worker now."""
    time.sleep(delay_seconds)
    return os.getpid()


def _execute_chunk(specs: list[RunSpec]) -> tuple[list[JobResult], float]:
    """Worker-side entry: executes a whole chunk; returns the results and
    the worker-side busy time (:attr:`RunnerStats.busy_worker_seconds`)."""
    started = time.perf_counter()
    results = [execute_spec(spec) for spec in specs]
    return results, time.perf_counter() - started


def _chunked(items: list, chunk_count: int) -> list[list]:
    """Split into ``chunk_count`` contiguous slices, sizes within one."""
    count = max(1, min(chunk_count, len(items)))
    base, extra = divmod(len(items), count)
    chunks, start = [], 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


# ----------------------------------------------------------------------
# JobResult <-> JSON

def result_to_dict(result: JobResult) -> dict:
    """Canonical dict form of a :class:`JobResult` (JSON-safe for the
    synthetic sweeps; raises ``TypeError`` later at ``json.dumps`` time if
    extras/outputs carry non-JSON payloads)."""
    return dataclasses.asdict(result)


def result_from_dict(data: dict) -> JobResult:
    """Inverse of :func:`result_to_dict` (restores int partition keys)."""
    outputs = data.get("outputs")
    if outputs is not None:
        outputs = {op: {int(index): records
                        for index, records in parts.items()}
                   for op, parts in outputs.items()}
    fields = {f.name: data[f.name] for f in dataclasses.fields(JobResult)
              if f.name in data}
    fields["outputs"] = outputs
    return JobResult(**fields)


def canonical_result_json(result: JobResult) -> str:
    """Byte-stable JSON encoding used for cache entries and equality
    checks across serial/parallel runs."""
    return json.dumps(result_to_dict(result), sort_keys=True)


# ----------------------------------------------------------------------
# code fingerprint + on-disk cache

_FINGERPRINT: Optional[str] = None


def _tree_fingerprint(root: pathlib.Path) -> str:
    """Digest over every ``.py`` file under ``root`` (path + content)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_fingerprint(root: Optional[pathlib.Path] = None) -> str:
    """Digest over every ``.py`` file under ``src/repro`` (the whole
    package, tenancy layer included); part of the cache key so stale
    results never survive a code change. ``root`` overrides the digested
    tree (uncached); tests use it to prove modules participate.
    """
    global _FINGERPRINT
    if root is not None:
        return _tree_fingerprint(pathlib.Path(root))
    if _FINGERPRINT is None:
        _FINGERPRINT = _tree_fingerprint(
            pathlib.Path(__file__).resolve().parents[1])
    return _FINGERPRINT


class ResultCache:
    """One JSON file per completed spec, under
    ``<dir>/<code fingerprint>/<spec hash>.json``, fronted by an
    in-memory LRU so repeated probes within one process skip disk I/O.

    ``get``/``put``/``path_for`` accept the precomputed content hash via
    ``key=`` so callers that already hashed the spec never hash twice.
    ``memory_hits``/``disk_hits``/``misses`` count where probes landed;
    ``corrupt`` counts entries that exist but cannot be read back.
    """

    def __init__(self, directory: Union[str, pathlib.Path],
                 memory_entries: int = 4096) -> None:
        self.directory = pathlib.Path(directory)
        self.memory_entries = memory_entries
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.corrupt = 0
        self._memory: OrderedDict[str, JobResult] = OrderedDict()

    def path_for(self, spec: RunSpec, key: Optional[str] = None)\
            -> pathlib.Path:
        key = key if key is not None else spec.content_hash()
        return self.directory / code_fingerprint() / f"{key}.json"

    def get(self, spec: RunSpec, key: Optional[str] = None)\
            -> Optional[JobResult]:
        key = key if key is not None else spec.content_hash()
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return cached
        try:
            data = json.loads(self.path_for(spec, key=key).read_text())
            result = result_from_dict(data["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Truncated or unreadable entry: the caller re-simulates and
            # overwrites it, but the damage is counted, not hidden.
            self.corrupt += 1
            return None
        self.disk_hits += 1
        self._remember(key, result)
        return result

    def put(self, spec: RunSpec, result: JobResult,
            key: Optional[str] = None) -> bool:
        """Persist a result atomically (tempfile + rename, so concurrent
        writers land whole files); returns False, caching nothing, when
        the result carries non-JSON payloads."""
        key = key if key is not None else spec.content_hash()
        try:
            payload = json.dumps(
                {"spec": spec_to_dict(spec),
                 "result": result_to_dict(result)},
                sort_keys=True)
        except TypeError:
            return False
        path = self.path_for(spec, key=key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._remember(key, result)
        return True

    def _remember(self, key: str, result: JobResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)


# ----------------------------------------------------------------------
# the runner

@dataclass
class RunnerStats:
    """What a :class:`SweepRunner` actually did, and how long it took.

    ``cache_corrupt`` counts cache entries that existed but could not be
    read back. ``exec_seconds`` is simulation compute (worker busy time
    for pool chunks), pool startup is accounted separately, and
    :attr:`pool_occupancy` is worker busy time over ``pool size x open
    time``.
    """

    simulated: int = 0
    cache_hits: int = 0
    cache_corrupt: int = 0
    deduplicated: int = 0
    batches: int = 0
    chunks: int = 0
    pools_started: int = 0
    wall_seconds: float = 0.0
    exec_seconds: float = 0.0
    pool_startup_seconds: float = 0.0
    busy_worker_seconds: float = 0.0
    pool_worker_seconds: float = 0.0

    @property
    def mean_spec_seconds(self) -> float:
        return self.exec_seconds / self.simulated if self.simulated else 0.0

    @property
    def pool_occupancy(self) -> float:
        """Fraction of pool-worker capacity spent computing."""
        if self.pool_worker_seconds <= 0.0:
            return 0.0
        return self.busy_worker_seconds / self.pool_worker_seconds

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["mean_spec_seconds"] = self.mean_spec_seconds
        data["pool_occupancy"] = self.pool_occupancy
        return data

    def __str__(self) -> str:
        text = (f"{self.simulated} simulated, {self.cache_hits} cached, "
                f"{self.deduplicated} deduplicated")
        if self.cache_corrupt:
            text += f", {self.cache_corrupt} corrupt cache entries"
        text += (f"; {self.wall_seconds:.2f}s wall, "
                 f"{self.mean_spec_seconds * 1e3:.1f} ms/spec")
        if self.pools_started:
            text += (f", {self.pool_startup_seconds:.2f}s pool startup "
                     f"x{self.pools_started}")
        if self.pool_worker_seconds > 0.0:
            text += f", {self.pool_occupancy:.0%} pool occupancy"
        return text


class SpecFuture:
    """Handle for one submitted :class:`RunSpec`, redeemed through
    :meth:`SweepRunner.wait`. ``_chunk`` is the in-flight pool chunk,
    ``(future, handles)``, that will resolve it."""

    __slots__ = ("spec", "key", "_chunk", "_result", "_error")

    def __init__(self, spec: RunSpec, key: str) -> None:
        self.spec = spec
        self.key = key
        self._chunk: Optional[tuple] = None
        self._result: Optional[JobResult] = None
        self._error: Optional[BaseException] = None


class SweepRunner:
    """Execute lists of :class:`RunSpec` serially or on one worker pool,
    with optional on-disk memoization.

    ``workers=0`` runs serially in-process. ``workers=N`` fans pending
    specs out in chunks over one spawn pool of ``min(N, os.cpu_count())``
    workers (more processes than cores only add startup) that lives
    across ``run()`` calls until ``close()`` or the end of a ``with``
    block. Results come back in spec order; a pooled result equals the
    serial one only when it does not depend on process history (see the
    module docstring). Identical specs within one call simulate once.

    ``run()`` is ``submit_many()`` then ``wait()`` on each handle in
    order; the multi-tenant executor makes the same two calls once per
    dispatch batch. ``mp_context`` picks the pool's start method (tests
    use ``"fork"`` for speed).
    """

    def __init__(self, workers: int = 0,
                 cache_dir: Optional[Union[str, pathlib.Path]] = None, *,
                 mp_context: Optional[str] = DEFAULT_MP_CONTEXT) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.mp_context = mp_context
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = RunnerStats()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        self._pool_mark: Optional[float] = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool; the next ``run()`` starts afresh."""
        if self._pool is not None:
            self._mark_pool()
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_mark = None

    def _mark_pool(self) -> None:
        """Advance the ``pool size x open time`` integral to now."""
        if self._pool is not None and self._pool_mark is not None:
            now = time.perf_counter()
            self.stats.pool_worker_seconds += (
                self._pool_size * (now - self._pool_mark))
            self._pool_mark = now

    def run(self, specs: Sequence[RunSpec]) -> list[JobResult]:
        """Submit every spec, wait in spec order."""
        started = time.perf_counter()
        handles = self.submit_many(specs)
        results = [self.wait(handle) for handle in handles]
        self.stats.batches += 1
        self.stats.wall_seconds += time.perf_counter() - started
        return results

    def submit_many(self, specs: Sequence[RunSpec]) -> list[SpecFuture]:
        """Start executing specs; one handle per spec, in order. Each
        spec is hashed once, probed against the cache and deduplicated
        within this call; the rest is chunked onto the pool or, with
        ``workers=0``, executed inline before returning."""
        handles: list[SpecFuture] = []
        fresh: list[SpecFuture] = []
        local: dict[str, SpecFuture] = {}
        for spec in specs:
            key = spec.content_hash()
            if self.cache is not None:
                hit = self.cache.get(spec, key=key)
                if hit is not None:
                    handle = SpecFuture(spec, key)
                    handle._result = hit
                    handles.append(handle)
                    self.stats.cache_hits += 1
                    continue
            handle = local.get(key)
            if handle is not None:
                handles.append(handle)
                self.stats.deduplicated += 1
                continue
            handle = local[key] = SpecFuture(spec, key)
            handles.append(handle)
            fresh.append(handle)
        if self.cache is not None:
            self.stats.cache_corrupt = self.cache.corrupt
        if self.workers == 0:
            for handle in fresh:
                started = time.perf_counter()
                result = execute_spec(handle.spec)
                self.stats.exec_seconds += time.perf_counter() - started
                self._commit(handle, result)
        elif fresh:
            self._dispatch(fresh)
        return handles

    def wait(self, handle: SpecFuture) -> JobResult:
        """Block until ``handle`` resolves; returns its result or
        re-raises the error its chunk failed with."""
        if handle._chunk is not None:
            self._finalize(handle._chunk)
        if handle._error is not None:
            raise handle._error
        assert handle._result is not None, "handle was never submitted"
        return handle._result

    def _commit(self, handle: SpecFuture, result: JobResult) -> None:
        handle._result = result
        self.stats.simulated += 1
        if self.cache is not None:
            self.cache.put(handle.spec, result, key=handle.key)

    def _dispatch(self, handles: list[SpecFuture]) -> None:
        pool = self._ensure_pool()
        # ~4 chunks per worker balances load without per-spec round-trips.
        chunks = _chunked(handles, min(len(handles), 4 * self._pool_size))
        for chunk in chunks:
            try:
                future = pool.submit(_execute_chunk, [h.spec for h in chunk])
            except BaseException:
                self.close()
                raise
            for handle in chunk:
                handle._chunk = (future, chunk)
        self.stats.chunks += len(chunks)

    def _finalize(self, chunk: tuple) -> None:
        future, handles = chunk
        for handle in handles:
            handle._chunk = None
        try:
            results, busy_seconds = future.result()
        except BaseException as error:
            # A broken pool (worker killed, pickling failure) is not
            # recoverable in place; drop it so the next dispatch rebuilds.
            # The error surfaces through every handle of the chunk.
            for handle in handles:
                handle._error = error
            self.close()
            return
        self._mark_pool()
        self.stats.busy_worker_seconds += busy_seconds
        self.stats.exec_seconds += busy_seconds
        for handle, result in zip(handles, results):
            self._commit(handle, result)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            started = time.perf_counter()
            size = max(1, min(self.workers, os.cpu_count() or 1))
            context = (multiprocessing.get_context(self.mp_context)
                       if self.mp_context is not None else None)
            self._pool = ProcessPoolExecutor(max_workers=size,
                                             mp_context=context,
                                             initializer=_init_worker)
            # Occupy every slot briefly so the executor spawns its full
            # complement now: startup cost lands here, not in chunk 1.
            probes = [self._pool.submit(_pool_probe, 0.05)
                      for _ in range(size)]
            for probe in probes:
                probe.result()
            self._pool_size = size
            self._pool_mark = time.perf_counter()
            self.stats.pool_startup_seconds += time.perf_counter() - started
            self.stats.pools_started += 1
        return self._pool


def run_specs(specs: Sequence[RunSpec], workers: int = 0,
              cache: Optional[Union[str, pathlib.Path]] = None,
              runner: Optional[SweepRunner] = None) -> list[JobResult]:
    """Run specs through ``runner``, or through a fresh
    :class:`SweepRunner` built from ``workers``/``cache`` and closed
    before returning."""
    if runner is not None:
        return runner.run(specs)
    with SweepRunner(workers=workers, cache_dir=cache) as local:
        return local.run(specs)
