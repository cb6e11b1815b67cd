"""Microbenchmarks for the discrete-event simulator hot path.

The event loop dominates every experiment (a 0.2-scale MLR run executes a
few hundred thousand events), so this file pins its performance:
schedule/step throughput, cancellation + compaction, and one end-to-end
engine run. ``BENCH_simulator.json`` in
this directory is the committed baseline; regenerate it after intentional
changes with::

    PYTHONPATH=src python -m pytest benchmarks/bench_simulator_hotpath.py \
        --benchmark-only --benchmark-json=benchmarks/BENCH_simulator.json

and compare against the previous numbers in docs/PERFORMANCE.md.
"""

from __future__ import annotations

from repro.bench.experiments import make_workload, run_one
from repro.cluster.events import Simulator
from repro.core.runtime.engine import PadoEngine
from repro.engines.base import ClusterConfig
from repro.trace import EvictionRate

N_EVENTS = 50_000


def _noop() -> None:
    return None


def _schedule_and_drain() -> int:
    sim = Simulator()
    for i in range(N_EVENTS):
        sim.schedule_at(sim.now + float(i % 97), _noop)
    while sim.step():
        pass
    return sim.events_processed


def _cancel_storm() -> int:
    sim = Simulator()
    tokens = [sim.schedule_at(sim.now + float(i % 97) + 1.0, _noop)
              for i in range(N_EVENTS)]
    for token in tokens:
        sim.cancel(token)
    sim.run()
    return sim.pending_events


def test_schedule_step_hot_path(benchmark):
    """schedule_at + step, near-term delays on the heap and the rest on
    the wheel: the one scheduling path every event takes."""
    processed = benchmark(_schedule_and_drain)
    assert processed == N_EVENTS


def test_cancel_and_compact(benchmark):
    """Mass cancellation with tombstone compaction."""
    remaining = benchmark(_cancel_storm)
    assert remaining == 0


def test_run_one_pado_mlr(benchmark):
    """End-to-end: one Pado MLR run under the high eviction rate."""

    def run():
        return run_one(PadoEngine(), make_workload("mlr"),
                       ClusterConfig(eviction=EvictionRate.HIGH), seed=11)

    result = benchmark(run)
    assert result.completed
