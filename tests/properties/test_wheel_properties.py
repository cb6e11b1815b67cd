"""Heap-vs-wheel equivalence properties.

The calendar queue in :mod:`repro.cluster.events` claims that parking an
event in a bucket and spilling the bucket later is indistinguishable from
pushing the event straight onto the heap: entries keep their
``(time, priority, seq)`` triple, and a bucket merges before anything at
or past its start can pop. These tests drive two simulators through the
*same* ``schedule_at``/``cancel`` call sequence — one stock (wheel
active), one with ``_wheel_put`` rerouted to a plain heap push — and
assert the observable behaviour is identical, including cancellations on
either side of a spill, caller-given seqs and same-timestamp tie-breaks.
"""

from heapq import heappush
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cluster import events
from repro.cluster.events import Simulator


def _heap_only(sim: Simulator) -> Simulator:
    """Disable the wheel on one instance: bucket routing degenerates to a
    direct heap push of the identical entry."""
    sim._wheel_put = lambda entry: heappush(sim._heap, entry)  # type: ignore[method-assign]
    return sim


# Quantized delays force time collisions across bucket boundaries (width
# 64 s), exercising the seq tie-break at the merge point.
_DELAYS = st.floats(0.0, 512.0, allow_nan=False).map(lambda d: round(d / 16) * 16.0)

_OPS = st.lists(
    st.tuples(
        _DELAYS,
        st.integers(-2, 2),                    # priority
        st.booleans(),                         # under a seq taken up front
        st.one_of(st.none(), _DELAYS),         # cancel this much later
    ),
    max_size=60,
)


def _cancel_later(sim: Simulator, token: list, after) -> None:
    """Cancel ``token`` right away (``after == 0``), from an event
    ``after`` seconds from now (possibly once it has fired), or never."""
    if after == 0.0:
        sim.cancel(token)
    elif after is not None:
        sim.schedule_at(sim.now + after, lambda: sim.cancel(token))


def _apply(sim: Simulator, ops, fired) -> None:
    deferred = []
    for i, (delay, priority, taken, after) in enumerate(ops):
        cb = (lambda s=sim, i=i: fired.append((s.now, i)))
        if taken:
            # Flow batching's pattern: take the seq now, schedule under
            # it later, after events holding younger seqs.
            deferred.append((sim.now + delay, cb, priority, sim.take_seq(),
                             after))
        else:
            token = sim.schedule_at(sim.now + delay, cb, priority=priority)
            _cancel_later(sim, token, after)
    for time, cb, priority, seq, after in deferred:
        token = sim.schedule_at(time, cb, priority=priority, seq=seq)
        _cancel_later(sim, token, after)


def _counts(sim: Simulator) -> tuple:
    assert 0 <= sim.cancelled_pending <= sim.pending_events
    return (sim.now, sim.events_processed, sim.pending_events,
            sim.cancelled_pending)


def _drive(sim: Simulator, ops) -> tuple:
    """Apply ``ops``, then step to the end: the fired order and the
    counters after every step."""
    fired = []
    _apply(sim, ops, fired)
    trail = [_counts(sim)]
    while sim.step():
        trail.append(_counts(sim))
    trail.append(_counts(sim))
    return fired, trail


@settings(max_examples=200, deadline=None)
@given(_OPS, st.sampled_from([4, 64]))
def test_wheel_and_heap_fire_identically(ops, compact_floor):
    # A low compaction floor lets 60 ops compact the heap and the wheel.
    with mock.patch.object(events, "_COMPACT_MIN_CANCELLED", compact_floor):
        ref = _drive(_heap_only(Simulator()), ops)
        wheel = _drive(Simulator(), ops)
    assert wheel == ref
    assert wheel[1][-1][2:] == (0, 0)


@settings(max_examples=100, deadline=None)
@given(_OPS, st.lists(_DELAYS, max_size=10))
def test_wheel_equivalence_with_dynamic_rescheduling(ops, followups):
    # Callbacks that schedule further events exercise spills that happen
    # mid-run, with fresh near-term events racing already-bucketed ones.
    def drive(sim):
        fired = []

        def fire(i, depth):
            fired.append((sim.now, i, depth))
            if depth < len(followups):
                sim.schedule_at(sim.now + followups[depth],
                                lambda: fire(i, depth + 1))
        for i, (delay, priority, _taken, _after) in enumerate(ops):
            sim.schedule_at(sim.now + delay, lambda i=i: fire(i, 0),
                            priority=priority)
        sim.run()
        return fired

    assert drive(Simulator()) == drive(_heap_only(Simulator()))


@settings(max_examples=100, deadline=None)
@given(_OPS, st.floats(0.0, 600.0, allow_nan=False))
def test_wheel_respects_run_until(ops, cutoff):
    ref, wheel = _heap_only(Simulator()), Simulator()
    ref_fired, wheel_fired = [], []
    _apply(ref, ops, ref_fired)
    _apply(wheel, ops, wheel_fired)
    ref.run(until=cutoff)
    wheel.run(until=cutoff)
    assert wheel_fired == ref_fired
    assert _counts(wheel) == _counts(ref)
    assert wheel.now == cutoff
    ref.run()
    wheel.run()
    assert wheel_fired == ref_fired
    assert _counts(wheel) == _counts(ref)
