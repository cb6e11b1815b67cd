"""Property-based tests for the discrete-event simulator core."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cluster.events import Simulator


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1000.0, allow_nan=False), max_size=50))
def test_events_observe_nondecreasing_time(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule_at(sim.now + delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 100.0, allow_nan=False),
                          st.integers(-5, 5)), max_size=40))
def test_priority_order_within_same_time(events):
    sim = Simulator()
    observed = []
    for delay, priority in events:
        sim.schedule_at(sim.now + delay, lambda d=delay, p=priority:
                        observed.append((d, p)), priority=priority)
    sim.run()
    # Within equal timestamps, priorities must be non-decreasing.
    for (t0, p0), (t1, p1) in zip(observed, observed[1:]):
        assert t0 <= t1
        if t0 == t1:
            pass  # ties between equal (time, priority) keep insertion order
    same_time = {}
    for t, p in observed:
        same_time.setdefault(t, []).append(p)
    for priorities in same_time.values():
        assert priorities == sorted(priorities)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.1, 100.0, allow_nan=False), min_size=1,
                max_size=30),
       st.data())
def test_cancelled_events_never_fire(delays, data):
    sim = Simulator()
    fired = []
    tokens = [sim.schedule_at(sim.now + d, lambda i=i: fired.append(i))
              for i, d in enumerate(delays)]
    to_cancel = data.draw(st.sets(st.integers(0, len(delays) - 1)))
    for i in to_cancel:
        sim.cancel(tokens[i])
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 50.0, allow_nan=False), max_size=30),
       st.floats(0.0, 60.0, allow_nan=False))
def test_run_until_is_a_clean_pause(delays, cutoff):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule_at(sim.now + d, lambda d=d: fired.append(d))
    sim.run(until=cutoff)
    assert all(d <= cutoff for d in fired)
    sim.run()
    assert sorted(fired) == sorted(delays)
