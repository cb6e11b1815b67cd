"""Sweep-layer throughput: serial against one capped worker pool.

Two benchmark families, both exercising the dispatch layer around the
simulator rather than the simulator itself:

* ``test_batched_sweep`` — six 4-spec batches pushed through one
  ``SweepRunner.run()`` call each. ``serial`` runs in-process;
  ``pool-N`` asks for N workers and gets one warm spawn pool of
  ``min(N, os.cpu_count())`` reused for every batch, so ``pool-8``
  shows the cap: on a 2-core host it starts the same 2 workers as
  ``pool-2``.
* ``test_mtsweep_end_to_end`` — a full 40-job multi-tenant cell at load
  1.0 under high eviction, ``serial`` and ``pool-2``. The outer loop
  dispatches one small batch at a time, so the pool cannot overlap much
  work here; the per-tenant JCT table is asserted identical to serial.

Every benchmark records the host's core count and the pool size in its
``extra_info``. ``BENCH_sweep.json`` in this directory is the committed
wall-time baseline; regenerate it after intentional dispatch-layer
changes with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_throughput.py \
        --benchmark-only --benchmark-json=benchmarks/BENCH_sweep.json

Quote any speedup against the ``serial`` row at the recorded core count.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.bench.multitenant import (jct_table, make_cell_config,
                                     run_multitenant_cell)
from repro.bench.runner import RunSpec, SweepRunner

NUM_BATCHES = 6
BATCH_SIZE = 4

POOLS = (("serial", 0), ("pool-1", 1), ("pool-2", 2), ("pool-8", 8))


def dispatch_batches() -> list[list[RunSpec]]:
    """Six small distinct-seed batches (no caching, no dedup)."""
    return [[RunSpec(workload="mr", engine="pado", scale=0.02,
                     seed=batch * BATCH_SIZE + slot, eviction="high")
             for slot in range(BATCH_SIZE)]
            for batch in range(NUM_BATCHES)]


def record_host(benchmark, runner: SweepRunner) -> None:
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["pool_size"] = runner._pool_size


@pytest.mark.parametrize("label,workers", POOLS, ids=[p[0] for p in POOLS])
def test_batched_sweep(benchmark, save_artifact, label, workers):
    """Specs/sec for repeated small batches through one runner."""

    def run():
        with SweepRunner(workers=workers) as runner:
            for batch in dispatch_batches():
                runner.run(batch)
            return runner

    runner = benchmark.pedantic(run, rounds=1, iterations=1)
    record_host(benchmark, runner)
    stats = runner.stats
    assert stats.simulated == NUM_BATCHES * BATCH_SIZE
    specs_per_sec = stats.simulated / stats.wall_seconds
    save_artifact(
        f"sweep_throughput_{label}",
        f"batched sweep [{label}] on {os.cpu_count()} core(s), pool of "
        f"{runner._pool_size}: {stats.simulated} specs in "
        f"{stats.wall_seconds:.2f}s = {specs_per_sec:.1f} specs/sec\n"
        f"  {stats}")


def mtsweep_config():
    return make_cell_config("fair", 1.0, "high", num_jobs=40, seed=11)


@functools.lru_cache(maxsize=1)
def serial_jct_table() -> str:
    """The cell's serial-ground-truth per-tenant JCT table, computed once
    and asserted against every benchmarked variant."""
    return jct_table(run_multitenant_cell(mtsweep_config(),
                                          runner=SweepRunner(workers=0)))


@pytest.mark.parametrize("label,workers", [("serial", 0), ("pool-2", 2)],
                         ids=["serial", "pool-2"])
def test_mtsweep_end_to_end(benchmark, save_artifact, label, workers):
    """One full multi-tenant cell: ~40 dispatch batches through the
    runner, serially or on one warm pool."""

    def run():
        with SweepRunner(workers=workers) as runner:
            return runner, run_multitenant_cell(mtsweep_config(),
                                                runner=runner)

    runner, result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_host(benchmark, runner)
    assert all(r.finish_time is not None for r in result.records)
    assert jct_table(result) == serial_jct_table()
    save_artifact(
        f"sweep_mtsweep_{label}",
        f"mtsweep cell [{label}] on {os.cpu_count()} core(s): "
        f"{result.dispatch_batches} dispatch batches, "
        f"{runner.stats.pools_started} pool(s) started\n"
        f"  {runner.stats}\n"
        + jct_table(result,
                    title=f"mtsweep {label}: fair load=1.0 "
                          f"eviction=high jobs=40"))
