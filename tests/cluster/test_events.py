"""Unit tests for the discrete-event simulator core."""

import math

import pytest

from repro.cluster.events import Simulator
from repro.errors import SimulationError


def test_starts_at_time_zero():
    assert Simulator().now == 0.0


def test_runs_event_at_scheduled_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_at(3.0, lambda: order.append("c"))
    sim.schedule_at(1.0, lambda: order.append("a"))
    sim.schedule_at(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule_at(1.0, lambda lab=label: order.append(lab))
    sim.run()
    assert order == ["a", "b", "c"]


def test_priority_breaks_ties_before_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, lambda: order.append("normal"), priority=0)
    sim.schedule_at(1.0, lambda: order.append("urgent"), priority=-10)
    sim.run()
    assert order == ["urgent", "normal"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(sim.now - 1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule_at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None, seq=sim.take_seq())


def test_schedule_at_fast_past_rejected():
    # schedule_at without seq= is the handle-free absolute-time path that
    # schedule_at_fast used to be: a past time queues nothing and spends
    # no tie-break number.
    sim = Simulator()
    sim.schedule_at(5.0, lambda: None)
    sim.run()
    next_seq = sim.take_seq() + 1
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)
    assert sim.pending_events == 0
    assert sim.take_seq() == next_seq


def test_nan_time_rejected():
    # NaN compares False against everything, so a bare ``time < now``
    # check let it through, and firing it set the clock to NaN.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None, seq=sim.take_seq())
    assert sim.pending_events == 0
    sim.run()
    assert sim.now == 0.0


def test_infinite_time_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(math.inf, lambda: None)
    assert sim.pending_events == 0


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def first():
        sim.schedule_at(sim.now + 2.0, lambda: fired.append(sim.now))

    sim.schedule_at(1.0, first)
    sim.run()
    assert fired == [3.0]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    token = sim.schedule_at(1.0, lambda: fired.append(1))
    sim.cancel(token)
    sim.run()
    assert fired == []
    assert sim.cancelled_pending == sim.pending_events == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append(1))
    sim.schedule_at(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0


def test_run_until_resumes_cleanly():
    sim = Simulator()
    fired = []
    sim.schedule_at(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    sim.run()
    assert fired == [2]
    assert sim.now == 10.0


def test_max_events_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule_at(sim.now + 1.0, reschedule)

    sim.schedule_at(1.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_peek_time():
    sim = Simulator()
    assert math.isinf(sim.peek_time())
    token = sim.schedule_at(4.0, lambda: None)
    assert sim.peek_time() == 4.0
    sim.cancel(token)
    assert math.isinf(sim.peek_time())


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule_at(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


# ----------------------------------------------------------------------
# run(until=...) drain consistency


def test_run_until_advances_now_when_heap_drains_early():
    # Regression: ``now`` used to stop at the last event when the heap
    # drained before ``until``, but advanced to ``until`` when later
    # events existed; the two paths must agree.
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_run_until_advances_now_on_empty_heap():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_run_until_drained_matches_pending_path():
    drained = Simulator()
    drained.schedule_at(1.0, lambda: None)
    drained.run(until=5.0)
    pending = Simulator()
    pending.schedule_at(1.0, lambda: None)
    pending.schedule_at(10.0, lambda: None)
    pending.run(until=5.0)
    assert drained.now == pending.now == 5.0


def test_run_until_does_not_move_now_backwards():
    sim = Simulator()
    sim.schedule_at(7.0, lambda: None)
    sim.run()
    sim.run(until=3.0)
    assert sim.now == 7.0


# ----------------------------------------------------------------------
# one scheduling entry point: fresh and caller-provided seqs


def test_fresh_and_taken_seqs_share_one_counter():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, lambda: order.append("a"))
    taken = sim.take_seq()
    sim.schedule_at(1.0, lambda: order.append("c"))
    sim.schedule_at(1.0, lambda: order.append("b"), seq=taken)
    sim.run()
    assert order == ["a", "b", "c"]


def test_head_sorts_before():
    sim = Simulator()
    assert not sim.head_sorts_before(5.0, 0)       # nothing queued
    sim.schedule_at(5.0, lambda: None, seq=10)
    assert sim.head_sorts_before(5.0, 11)          # same time, earlier seq
    assert not sim.head_sorts_before(5.0, 9)
    assert sim.head_sorts_before(6.0, 0)           # earlier time
    assert not sim.head_sorts_before(4.0, 99)
    urgent = Simulator()
    urgent.schedule_at(5.0, lambda: None, priority=-1, seq=10)
    assert urgent.head_sorts_before(5.0, 0)        # lower priority wins
    late = Simulator()
    late.schedule_at(5.0, lambda: None, priority=1, seq=0)
    assert not late.head_sorts_before(5.0, 10)


# ----------------------------------------------------------------------
# cancellation tombstones and compaction


def test_cancel_is_idempotent_and_counts_once():
    sim = Simulator()
    token = sim.schedule_at(1.0, lambda: None)
    sim.cancel(token)
    sim.cancel(token)
    assert sim.cancelled_pending == 1
    sim.run()
    assert sim.cancelled_pending == 0


def test_cancel_after_fire_is_harmless():
    sim = Simulator()
    fired = []
    token = sim.schedule_at(1.0, lambda: fired.append(1))
    sim.run()
    sim.cancel(token)
    assert fired == [1]
    assert sim.cancelled_pending == 0   # nothing queued is a tombstone
    sim.schedule_at(sim.now + 1.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]


def test_mass_cancellation_compacts_the_heap():
    # Cancelled entries must not accumulate past the live-entry count.
    sim = Simulator()
    fired = []
    tokens = [sim.schedule_at(1.0 + i * 0.1, lambda: None)
              for i in range(300)]
    for i in range(100):
        sim.schedule_at(40.0 + i * 0.1, lambda i=i: fired.append(i))
    assert sim._wheel_count == 0
    for token in tokens:
        sim.cancel(token)
    # Compaction keeps tombstones bounded by the live entries.
    assert sim.pending_events < 400
    assert sim.cancelled_pending * 2 <= sim.pending_events + 1
    sim.run()
    assert fired == list(range(100))
    assert sim.events_processed == 100
    assert sim.pending_events == 0


def test_mass_cancellation_compacts_the_wheel():
    sim = Simulator()
    fired = []
    tokens = [sim.schedule_at(100.0 + i, lambda: None) for i in range(300)]
    for i in range(100):
        sim.schedule_at(500.0 + i, lambda i=i: fired.append(i))
    assert len(sim._heap) == 0          # everything parked on the wheel
    for token in tokens:
        sim.cancel(token)
        assert 0 <= sim.cancelled_pending <= sim.pending_events
    assert sim.pending_events < 400
    assert sim.cancelled_pending * 2 <= sim.pending_events + 1
    sim.run()
    assert fired == list(range(100))
    assert sim.pending_events == sim.cancelled_pending == 0


def test_cancel_on_the_wheel_keeps_counts_exact():
    sim = Simulator()
    fired = []
    token = sim.schedule_at(500.0, lambda: fired.append("cancelled"))
    sim.schedule_at(600.0, lambda: fired.append("live"))
    assert sim._wheel_count == 2
    sim.cancel(token)
    assert (sim.cancelled_pending, sim.pending_events) == (1, 2)
    sim.run(until=550.0)                # spills and drops the tombstone
    assert (sim.cancelled_pending, sim.pending_events) == (0, 1)
    sim.run()
    assert fired == ["live"]
    assert sim.cancelled_pending == sim.pending_events == 0


def test_small_cancellation_storms_skip_compaction():
    # Below the compaction threshold nothing is rebuilt: entries are only
    # dropped lazily as they surface.
    sim = Simulator()
    tokens = [sim.schedule_at(10.0 + i, lambda: None) for i in range(20)]
    for token in tokens:
        sim.cancel(token)
    assert sim.pending_events == 20
    assert sim.cancelled_pending == 20
    sim.run()
    assert sim.events_processed == 0


# ----------------------------------------------------------------------
# calendar queue (timer wheel)


def test_wheel_parks_far_future_events_off_the_heap():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(1000.0 + i, lambda i=i: fired.append(i))
    assert sim.pending_events == 10
    assert len(sim._heap) == 0          # all parked in buckets
    sim.run()
    assert fired == list(range(10))
    assert sim.pending_events == 0


def test_wheel_near_term_delays_go_straight_to_heap():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    assert len(sim._heap) == 1
    assert sim._wheel_count == 0


def test_schedule_at_routes_far_future_to_wheel():
    # Routing is by due time alone, with or without a caller-given seq;
    # one bucket width out (64 s) is already far enough.
    sim = Simulator()
    fired = []
    sim.schedule_at(500.0, lambda: fired.append("far"), seq=sim.take_seq())
    sim.schedule_at(64.0, lambda: fired.append("edge"))
    assert sim._wheel_count == 2
    sim.schedule_at(1.0, lambda: fired.append("near"), seq=sim.take_seq())
    assert len(sim._heap) == 1
    sim.run()
    assert fired == ["near", "edge", "far"]
    assert sim.now == 500.0


def test_wheel_merge_preserves_time_priority_seq_order():
    # The same timestamp reached from the wheel and from the heap, under
    # fresh and caller-given seqs: (time, priority, seq) must decide.
    sim = Simulator()
    fired = []
    early = sim.take_seq()
    sim.schedule_at(200.0, lambda: fired.append("wheel"))
    assert sim._wheel_count == 1

    def near():
        # 50 s out: these land on the heap while "wheel" is still parked.
        sim.schedule_at(200.0, lambda: fired.append("heap"))
        sim.schedule_at(200.0, lambda: fired.append("urgent"), priority=-1)
        sim.schedule_at(200.0, lambda: fired.append("early"), seq=early)
        assert sim._wheel_count == 1

    sim.schedule_at(150.0, near)
    sim.run()
    assert fired == ["urgent", "early", "wheel", "heap"]


def test_wheel_rejects_negative_and_nan_delays():
    # Rejection does not depend on the route, and a rejected call takes
    # no seq.
    sim = Simulator()
    sim.schedule_at(100.0, lambda: None)
    sim.run()
    for time in (sim.now - 1.0, math.nan):
        for seq in (None, 7):
            with pytest.raises(SimulationError):
                sim.schedule_at(time, lambda: None, seq=seq)
    assert sim.pending_events == 0
    assert sim.take_seq() == 1


def test_wheel_spills_before_equal_time_heap_event_pops():
    # A bucket whose start equals the heap front's time must merge first:
    # the bucket may hold an entry with the same timestamp but an earlier
    # seq (or lower priority) than the heap front.
    sim = Simulator()
    fired = []
    sim.schedule_at(128.0, lambda: fired.append("bucketed"))
    assert sim._wheel_count == 1
    sim.schedule_at(100.0, lambda: sim.schedule_at(
        128.0, lambda: fired.append("heap")))
    # Bucket start (128.0 // 64 * 64 == 128.0) == heap front time.
    sim.run()
    assert fired == ["bucketed", "heap"]


def test_wheel_events_interleave_with_dynamic_near_term_work():
    sim = Simulator()
    fired = []
    sim.schedule_at(300.0, lambda: fired.append(("evict", sim.now)))

    def tick():
        fired.append(("tick", sim.now))
        if sim.now < 400.0:
            sim.schedule_at(sim.now + 50.0, tick)

    sim.schedule_at(50.0, tick)
    sim.run()
    assert fired == [("tick", 50.0), ("tick", 100.0), ("tick", 150.0),
                     ("tick", 200.0), ("tick", 250.0), ("evict", 300.0),
                     ("tick", 300.0), ("tick", 350.0), ("tick", 400.0)]
