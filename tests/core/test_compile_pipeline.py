"""Unit tests for the compiler entry point and CompiledJob helpers."""

import pytest

from repro.core.compiler import compile_program
from repro.dataflow import Pipeline, SumCombiner
from repro.errors import ReproError


def make_dag():
    p = Pipeline()
    data = p.read("read", partitions=[[("a", 1)], [("b", 2)]])
    data.reduce_by_key("agg", SumCombiner(), parallelism=2)
    return p.to_dag()


def test_compile_produces_consistent_job():
    job = compile_program(make_dag())
    assert job.num_stages == 1
    summary = job.placement_summary()
    assert summary == {"read": "transient", "agg": "reserved"}


def test_compile_is_idempotent():
    dag = make_dag()
    first = compile_program(dag).placement_summary()
    second = compile_program(dag).placement_summary()
    assert first == second


def test_describe_lists_stages_with_parents():
    p = Pipeline()
    data = p.read("read", partitions=[[("a", 1)], [("b", 2)]])
    agg = data.reduce_by_key("agg", SumCombiner(), parallelism=2)
    agg.map("post", lambda kv: kv).reduce_by_key(
        "agg2", SumCombiner(), parallelism=2)
    job = compile_program(p.to_dag())
    text = job.describe()
    assert "stage 0" in text and "stage 1" in text
    assert "(parents: 0)" in text


def test_compile_rejects_invalid_dag():
    from repro.dataflow.dag import LogicalDAG, Operator
    dag = LogicalDAG()
    dag.add_operator(Operator("floating", parallelism=1))
    with pytest.raises(ReproError):
        compile_program(dag)


def test_engine_base_max_events_guard():
    """The run loop's livelock valve fires rather than spinning forever."""
    from repro import ClusterConfig, PadoEngine
    from repro.errors import ExecutionError
    from repro.workloads import mr_synthetic_program
    with pytest.raises(ExecutionError):
        PadoEngine().run(mr_synthetic_program(scale=0.05),
                         ClusterConfig(num_reserved=2, num_transient=4),
                         seed=0, max_events=10)


def test_eviction_fires_before_transfers_at_same_instant():
    """EVICTION_PRIORITY orders container death before a transfer completing
    at the same timestamp, so in-flight data is conservatively lost."""
    from repro.cluster.events import Simulator
    from repro.cluster.network import (ContainerEndpoint, EVICTION_PRIORITY,
                                       NetworkModel)
    from repro.cluster.resources import NodeSpec, transient_container
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    mb = 1024 * 1024
    src_container = transient_container(1.0,
                                        spec=NodeSpec(network_bandwidth=mb))
    src = ContainerEndpoint(src_container)
    dst = ContainerEndpoint(transient_container(1e9))
    outcomes = []
    net.transfer(src, dst, mb, lambda r: outcomes.append(r.ok))  # ends at 1.0
    sim.schedule_at(1.0, lambda: src_container.evict(sim.now),
                    priority=EVICTION_PRIORITY)
    sim.run()
    assert outcomes == [False]
