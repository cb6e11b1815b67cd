"""Unit tests for the input and stable storage services."""

import pytest

from repro.cluster.events import Simulator
from repro.cluster.network import ContainerEndpoint, NetworkModel
from repro.cluster.resources import NodeSpec, reserved_container
from repro.cluster.storage import InputStore, StableStore
from repro.errors import ExecutionError

MB = 1024 * 1024


@pytest.fixture
def env():
    sim = Simulator()
    net = NetworkModel(sim, latency=0.0)
    return sim, net


def endpoint(bandwidth=100 * MB):
    return ContainerEndpoint(
        reserved_container(NodeSpec(network_bandwidth=bandwidth)))


def test_input_store_put_and_read(env):
    sim, net = env
    store = InputStore(sim, net)
    store.put("f", 100 * MB, payload=[1, 2, 3])
    assert store.has("f")
    assert store.size_of("f") == 100 * MB
    assert store.payload_of("f") == [1, 2, 3]
    done = []
    store.read("f", endpoint(), lambda r: done.append((r.ok, sim.now)))
    sim.run()
    assert done == [(True, pytest.approx(1.0))]
    assert store.bytes_read == 100 * MB


def test_input_store_read_limited_by_reader_nic(env):
    sim, net = env
    store = InputStore(sim, net)
    store.put("f", 100 * MB)
    done = []
    store.read("f", endpoint(bandwidth=10 * MB),
               lambda r: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(10.0)]


def test_input_store_missing_file(env):
    sim, net = env
    store = InputStore(sim, net)
    with pytest.raises(ExecutionError):
        store.read("nope", endpoint(), lambda r: None)


def test_stable_store_round_robin_placement(env):
    sim, net = env
    store = StableStore(sim, net, num_servers=2, server_bandwidth=100 * MB)
    src = endpoint(bandwidth=1000 * MB)
    done = []
    # Two writes to different servers proceed in parallel; a third queues
    # behind the first server.
    for name in ("a", "b", "c"):
        store.write(name, 100 * MB, src, lambda r: done.append(sim.now))
    sim.run()
    assert sorted(done) == pytest.approx([1.0, 1.0, 2.0])
    assert store.bytes_written == 300 * MB


def test_stable_store_write_then_read(env):
    sim, net = env
    store = StableStore(sim, net, num_servers=1, server_bandwidth=100 * MB)
    store.write("x", 50 * MB, endpoint(), lambda r: None, payload=[1])
    sim.run()
    assert store.has("x")
    assert store.payload_of("x") == [1]
    done = []
    store.read("x", endpoint(), lambda r: done.append(r.ok))
    sim.run()
    assert done == [True]
    assert store.bytes_read == 50 * MB


def test_stable_store_failed_write_not_durable(env):
    from repro.cluster.resources import transient_container
    sim, net = env
    store = StableStore(sim, net, num_servers=1, server_bandwidth=10 * MB)
    container = transient_container(lifetime=1.0)
    src = ContainerEndpoint(container)
    outcomes = []
    store.write("x", 100 * MB, src, lambda r: outcomes.append(r.ok))
    sim.schedule_at(1.0, lambda: container.evict(sim.now))
    sim.run()
    assert outcomes == [False]
    assert not store.has("x")


def test_stable_store_read_share_moves_partial_bytes(env):
    sim, net = env
    store = StableStore(sim, net, num_servers=1, server_bandwidth=100 * MB)
    store.write("x", 100 * MB, endpoint(), lambda r: None)
    sim.run()
    done = []
    store.read_share("x", 10 * MB, endpoint(), lambda r: done.append(sim.now))
    start = sim.now
    sim.run()
    assert done[0] - start == pytest.approx(0.1)


def test_stable_store_read_missing(env):
    sim, net = env
    store = StableStore(sim, net, num_servers=1, server_bandwidth=1.0)
    with pytest.raises(ExecutionError):
        store.read("nope", endpoint(), lambda r: None)


def test_stable_store_delete(env):
    sim, net = env
    store = StableStore(sim, net, num_servers=1, server_bandwidth=100 * MB)
    store.write("x", 1 * MB, endpoint(), lambda r: None)
    sim.run()
    store.delete("x")
    assert not store.has("x")


def test_stable_store_needs_servers(env):
    sim, net = env
    with pytest.raises(ValueError):
        StableStore(sim, net, num_servers=0, server_bandwidth=1.0)
