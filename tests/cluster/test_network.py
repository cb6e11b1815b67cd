"""Unit tests for the bandwidth/network model."""

import pytest

from repro.cluster.events import Simulator
from repro.cluster.network import (ContainerEndpoint, DiskModel, FifoPort,
                                   InfiniteEndpoint, NetworkModel)
from repro.cluster.resources import (NodeSpec, reserved_container,
                                     transient_container)

MB = 1024 * 1024


def make_endpoint(bandwidth=100 * MB, transient=False, lifetime=1e9):
    spec = NodeSpec(network_bandwidth=bandwidth)
    container = (transient_container(lifetime, spec=spec) if transient
                 else reserved_container(spec))
    return ContainerEndpoint(container)


def test_fifo_port_serializes_requests():
    port = FifoPort(bandwidth=10.0)
    assert port.reserve(0.0, 100.0) == (0.0, 10.0)
    assert port.reserve(0.0, 50.0) == (10.0, 15.0)
    # A request arriving after the port frees starts immediately.
    assert port.reserve(20.0, 10.0) == (20.0, 21.0)


def test_fifo_port_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        FifoPort(0.0)


def test_transfer_time_is_size_over_bandwidth():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src, dst = make_endpoint(), make_endpoint()
    results = []
    net.transfer(src, dst, 100 * MB, results.append)
    sim.run()
    assert len(results) == 1
    assert results[0].ok
    assert results[0].finished_at == pytest.approx(1.0)


def test_transfer_bottlenecked_by_slower_endpoint():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src = make_endpoint(bandwidth=100 * MB)
    dst = make_endpoint(bandwidth=10 * MB)
    results = []
    net.transfer(src, dst, 100 * MB, results.append)
    sim.run()
    assert results[0].finished_at == pytest.approx(10.0)


def test_concurrent_transfers_queue_on_shared_source():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src = make_endpoint(bandwidth=100 * MB)
    done = []
    for _ in range(3):
        net.transfer(src, make_endpoint(), 100 * MB,
                     lambda r: done.append(r.finished_at))
    sim.run()
    assert done == pytest.approx([1.0, 2.0, 3.0])


def test_transfer_fails_if_source_evicted_midway():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src = make_endpoint(transient=True)
    dst = make_endpoint()
    results = []
    net.transfer(src, dst, 100 * MB, results.append)  # takes 1 s
    sim.schedule_at(0.5, lambda: src.container.evict(sim.now))
    sim.run()
    assert not results[0].ok
    assert net.transfers_failed == 1


def test_transfer_to_dead_endpoint_fails_immediately():
    sim = Simulator()
    net = NetworkModel(sim)
    src = make_endpoint(transient=True)
    src.container.evict(0.0)
    results = []
    net.transfer(src, make_endpoint(), 10.0, results.append)
    sim.run()
    assert results and not results[0].ok


def test_zero_byte_transfer_pays_latency_only():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.01)
    results = []
    net.transfer(make_endpoint(), make_endpoint(), 0.0, results.append)
    sim.run()
    assert results[0].ok
    assert results[0].finished_at == pytest.approx(0.01)


def test_negative_size_rejected():
    sim = Simulator()
    net = NetworkModel(sim)
    with pytest.raises(ValueError):
        net.transfer(make_endpoint(), make_endpoint(), -1.0, lambda r: None)


def test_bytes_transferred_accounting():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    net.transfer(make_endpoint(), make_endpoint(), 1000.0, lambda r: None)
    sim.run()
    assert net.bytes_transferred == 1000


def test_infinite_endpoint_never_bottlenecks():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    dst = make_endpoint(bandwidth=100 * MB)
    done = []
    net.transfer(InfiniteEndpoint(), dst, 100 * MB,
                 lambda r: done.append(r.finished_at))
    sim.run()
    assert done == pytest.approx([1.0])


def test_disk_write_and_read_share_bandwidth():
    sim = Simulator()
    spec = NodeSpec(disk_bandwidth=100 * MB)
    container = reserved_container(spec)
    disk = DiskModel(sim, container)
    times = []
    disk.write(100 * MB, lambda ok: times.append(sim.now))
    disk.read(100 * MB, lambda ok: times.append(sim.now))
    sim.run()
    assert times == pytest.approx([1.0, 2.0])
    assert disk.bytes_written == 100 * MB
    assert disk.bytes_read == 100 * MB


def test_disk_io_on_dead_container_reports_failure():
    sim = Simulator()
    container = transient_container(lifetime=10.0)
    disk = DiskModel(sim, container)
    outcomes = []
    disk.write(100 * MB, outcomes.append)
    container.evict(0.1)
    sim.run()
    assert outcomes == [False]


def test_dead_endpoint_counts_failure_not_bytes():
    sim = Simulator()
    net = NetworkModel(sim)
    src = make_endpoint(transient=True)
    src.container.evict(0.0)
    net.transfer(src, make_endpoint(), 10 * MB, lambda r: None)
    sim.run()
    assert net.transfers_failed == 1
    assert net.bytes_transferred == 0


def test_eviction_at_same_timestamp_beats_transfer_completion():
    """An eviction scheduled at exactly a transfer's finish time fires
    first (EVICTION_PRIORITY), so the transfer is conservatively lost."""
    from repro.cluster.network import EVICTION_PRIORITY

    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src = make_endpoint(transient=True)
    results = []
    net.transfer(src, make_endpoint(), 100 * MB, results.append)  # ends 1.0
    sim.schedule_at(1.0, lambda: src.container.evict(sim.now),
                    priority=EVICTION_PRIORITY)
    sim.run()
    assert not results[0].ok
    assert net.transfers_failed == 1
    assert net.bytes_transferred == 0


def test_transfer_many_shares_one_tagged_callback():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src = make_endpoint(bandwidth=100 * MB)
    done = []
    net.transfer_many(
        [(src, make_endpoint(), 100 * MB, tag) for tag in ("a", "b", "c")],
        lambda tag, r: done.append((tag, r.finished_at)))
    sim.run()
    assert [tag for tag, _ in done] == ["a", "b", "c"]
    assert [at for _, at in done] == pytest.approx([1.0, 2.0, 3.0])


def test_transfer_many_fails_dead_entries_without_losing_the_rest():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    dead = make_endpoint(transient=True)
    dead.container.evict(0.0)
    done = []
    net.transfer_many(
        [(dead, make_endpoint(), 100 * MB, "dead"),
         (make_endpoint(), make_endpoint(), 100 * MB, "live")],
        lambda tag, r: done.append((tag, r.ok)))
    sim.run()
    assert sorted(done) == [("dead", False), ("live", True)]
    assert net.transfers_failed == 1
    assert net.bytes_transferred == 100 * MB


def test_plan_nests_and_matches_sequential_timing():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src = make_endpoint(bandwidth=100 * MB)
    done = []
    record = lambda tag, r: done.append((tag, r.finished_at))  # noqa: E731
    net.begin_plan()
    net.plan_transfer(src, make_endpoint(), 100 * MB, "outer-1", record)
    net.begin_plan()  # a cascade opening its own plan mid-walk
    net.plan_transfer(src, make_endpoint(), 100 * MB, "inner", record)
    net.commit_plan()
    assert net.plan_open  # inner commit must not flush the outer plan
    net.plan_transfer(src, make_endpoint(), 100 * MB, "outer-2", record)
    net.commit_plan()
    assert not net.plan_open
    sim.run()
    assert [tag for tag, _ in done] == ["outer-1", "inner", "outer-2"]
    assert [at for _, at in done] == pytest.approx([1.0, 2.0, 3.0])


def test_plain_transfer_flushes_open_plan_first():
    """A plain transfer issued while a plan is open must not overtake the
    queued entries on a shared port."""
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    src = make_endpoint(bandwidth=100 * MB)
    done = []
    net.begin_plan()
    net.plan_transfer(src, make_endpoint(), 100 * MB, "planned",
                      lambda tag, r: done.append((tag, r.finished_at)))
    net.transfer(src, make_endpoint(), 100 * MB,
                 lambda r: done.append(("plain", r.finished_at)))
    net.commit_plan()
    sim.run()
    assert done == [("planned", pytest.approx(1.0)),
                    ("plain", pytest.approx(2.0))]


def test_bytes_served_does_not_truncate_fractional_shares():
    """Fractional reservations accumulate exactly; rounding happens once
    at read time (0.4 * 5 must be 2 bytes, not 0)."""
    port = FifoPort(bandwidth=10.0)
    for _ in range(5):
        port.reserve(0.0, 0.4)
    assert port.bytes_served == 2


def test_untraced_run_builds_no_event_objects(monkeypatch):
    """The tracer-off fast path never constructs Transfer/DiskIO events —
    asserted over a full engine run with evictions."""
    import repro.cluster.network as network_module
    from repro import ClusterConfig, SparkEngine
    from repro.trace.models import ExponentialLifetimeModel
    from repro.workloads import mr_synthetic_program

    def explode(*args, **kwargs):
        raise AssertionError("trace event built without a tracer attached")

    monkeypatch.setattr(network_module, "Transfer", explode)
    monkeypatch.setattr(network_module, "DiskIO", explode)
    result = SparkEngine().run(
        mr_synthetic_program(scale=0.05),
        ClusterConfig(num_reserved=2, num_transient=5,
                      eviction=ExponentialLifetimeModel(600.0)),
        seed=0, time_limit=48 * 3600.0)
    assert result.completed
