"""Multi-tenant sweep: the cached SweepRunner as the cluster's executor.

This is the glue between the engine-agnostic cluster loop
(:mod:`repro.cluster.tenancy`) and the benchmark substrate: every job the
inter-job policy dispatches becomes one :class:`~repro.bench.runner.RunSpec`
whose ``eviction_waves`` carry the cluster-wide wave schedule re-based to
the job's start, and the batch runs through a
:class:`~repro.bench.runner.SweepRunner` — serially or on its worker
pool — so a warm on-disk cache replays a whole sweep without a single
inner simulation. One runner (and any pool it holds) serves every
dispatch batch of the outer loop. ``python -m repro mtsweep`` drives
:func:`multitenant_sweep` over load x policy x eviction-rate cells.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.bench.runner import RunSpec, SweepRunner
from repro.bench.tables import render_table
from repro.cluster.tenancy import (ArrivalConfig, JobOutcome, JobRequest,
                                   MultiTenantCluster, TenancyConfig,
                                   TenancyResult)
from repro.cluster.tenancy.cluster import WaveOffsets
from repro.metrics.jct import jct_by_tenant, stats_to_dict
from repro.obs.events import JobTag
from repro.obs.tracer import active_collector

#: Default sweep axes of ``python -m repro mtsweep`` (cells = the cross
#: product; ``BENCH_multitenant.json`` commits the resulting table).
SWEEP_POLICIES = ("fifo", "fair", "quota")
SWEEP_LOADS = (0.5, 0.8, 1.1)
SWEEP_EVICTIONS = ("medium", "high")
SWEEP_RESERVES = ("fixed",)


def spec_for_job(request: JobRequest, waves: WaveOffsets,
                 time_limit_minutes: float) -> RunSpec:
    """The inner-engine :class:`RunSpec` for one dispatched job."""
    return RunSpec(workload=request.workload, engine=request.engine,
                   scale=request.scale, seed=request.seed,
                   time_limit_minutes=time_limit_minutes,
                   num_reserved=request.num_reserved,
                   num_transient=request.num_transient,
                   eviction="none",
                   eviction_waves=waves if waves else None)


def sweep_executor(config: TenancyConfig, runner: SweepRunner):
    """Build the cluster's batch executor on top of a sweep runner.

    Each dispatch batch is one ``runner.submit_many`` call followed by
    ``runner.wait`` on every handle in batch order; cache probes,
    within-batch dedup and chunked transport happen inside the runner.
    """

    def execute(batch: Sequence[tuple[JobRequest, WaveOffsets]]) \
            -> list[JobOutcome]:
        specs = [spec_for_job(request, waves, config.time_limit_minutes)
                 for request, waves in batch]
        handles = runner.submit_many(specs)
        return [_to_outcome(runner.wait(handle)) for handle in handles]

    return execute


def _to_outcome(result) -> JobOutcome:
    return JobOutcome(jct_seconds=result.jct_seconds,
                      completed=result.completed,
                      evictions=result.evictions)


def make_cell_config(policy: str, load: float, eviction: str,
                     num_jobs: int = 60, seed: int = 11,
                     reserve: str = "fixed") -> TenancyConfig:
    """One sweep cell: a policy under an offered load and wave regime."""
    return TenancyConfig(policy=policy, eviction=eviction,
                         num_jobs=num_jobs, seed=seed, reserve=reserve,
                         arrival=ArrivalConfig(load=load))


def run_multitenant_cell(config: TenancyConfig,
                         runner: Optional[SweepRunner] = None,
                         workers: int = 0,
                         cache=None) -> TenancyResult:
    """Run one multi-tenant cell end to end.

    When an obs collector is installed (:func:`repro.obs.collecting`),
    every job additionally gets a ``tenant/job_id``-labelled trace holding
    its :class:`~repro.obs.events.JobTag`, joining the cluster-level
    records to the observability layer.
    """
    if runner is None:
        with SweepRunner(workers=workers, cache_dir=cache) as local:
            return run_multitenant_cell(config, runner=local)
    cluster = MultiTenantCluster(config, sweep_executor(config, runner))
    started = time.perf_counter()
    result = cluster.run()
    # Dispatch never passes through runner.run(), so the cell accounts
    # its own wall clock and dispatch batches.
    runner.stats.wall_seconds += time.perf_counter() - started
    runner.stats.batches += result.dispatch_batches
    _tag_job_traces(result)
    return result


def _tag_job_traces(result: TenancyResult) -> None:
    collector = active_collector()
    if collector is None:
        return
    for record in result.records:
        tracer = collector.new_tracer(f"{record.tenant}/{record.job_id}")
        tracer.emit(JobTag(
            time=record.start_time if record.start_time is not None else 0.0,
            job=record.job_id, tenant=record.tenant,
            engine=record.request.engine, workload=record.request.workload,
            queue_seconds=record.queue_seconds))


def jct_table(result: TenancyResult, title: Optional[str] = None) -> str:
    """Per-tenant JCT distribution table (minutes), plus the aggregate."""
    headers = ["tenant", "jobs", "done", "mean JCT", "p50", "p99",
               "queue", "run", "evictions", "waves hit"]
    rows = []
    for tenant, stats in jct_by_tenant(result.records).items():
        rows.append([tenant, stats.count, stats.completed,
                     stats.mean_jct / 60.0, stats.p50_jct / 60.0,
                     stats.p99_jct / 60.0, stats.mean_queue / 60.0,
                     stats.mean_run / 60.0, stats.evictions,
                     stats.waves_hit])
    return render_table(headers, rows, title=title)


def cell_summary(config: TenancyConfig, result: TenancyResult) -> dict:
    """JSON-ready summary of one cell (a ``BENCH_multitenant.json`` row)."""
    return {
        "policy": config.policy,
        "load": config.arrival.load,
        "eviction": config.eviction,
        "reserve": config.reserve,
        "num_jobs": config.num_jobs,
        "seed": config.seed,
        "makespan_minutes": round(result.makespan / 60.0, 3),
        "dispatch_batches": result.dispatch_batches,
        "pool_resizes": len(result.pool.resizes),
        "waves": len(result.waves),
        "waves_delivered": len(result.pool.waves),
        "containers_revoked": sum(r.containers_revoked
                                  for r in result.records),
        "tenants": {tenant: stats_to_dict(stats)
                    for tenant, stats
                    in jct_by_tenant(result.records).items()},
    }


def multitenant_sweep(policies: Sequence[str] = SWEEP_POLICIES,
                      loads: Sequence[float] = SWEEP_LOADS,
                      evictions: Sequence[str] = SWEEP_EVICTIONS,
                      reserves: Sequence[str] = SWEEP_RESERVES,
                      num_jobs: int = 60, seed: int = 11,
                      runner: Optional[SweepRunner] = None,
                      workers: int = 0, cache=None) -> list[dict]:
    """Sweep load x policy x eviction x reserve; one summary per cell.

    All cells share one runner (and with ``workers=N`` one warm worker
    pool), so with a cache identical inner jobs simulate once across
    cells and runs. The ``reserves`` axis defaults to fixed-only; pass
    ``("fixed", "elastic")`` to measure the elasticity controller head to
    head.
    """
    if runner is None:
        with SweepRunner(workers=workers, cache_dir=cache) as local:
            return multitenant_sweep(policies, loads, evictions, reserves,
                                     num_jobs=num_jobs, seed=seed,
                                     runner=local)
    summaries = []
    for load in loads:
        for eviction in evictions:
            for policy in policies:
                for reserve in reserves:
                    config = make_cell_config(policy, load, eviction,
                                              num_jobs=num_jobs, seed=seed,
                                              reserve=reserve)
                    result = run_multitenant_cell(config, runner=runner)
                    summaries.append(cell_summary(config, result))
    return summaries
