"""Deterministic discrete-event simulation core.

All engines in this reproduction run on top of :class:`Simulator`, a minimal
event-heap simulator. Determinism matters: the paper's experiments compare
engines on identical eviction schedules, and our tests assert bit-for-bit
reproducibility given a seed. To that end events are ordered by
``(time, priority, sequence)`` where the sequence number breaks ties in
insertion order, and the simulator never consults wall-clock time or global
random state.

:meth:`Simulator.schedule_at` is the one way to queue an event. Callers
with a delay write ``sim.schedule_at(sim.now + delay, callback)``; the
returned entry doubles as the cancellation token for
:meth:`Simulator.cancel`, so cancellable events cost nothing extra.

The event loop is the hottest code in the repository (a 0.2-scale MLR run
executes several hundred thousand events), so the heap stores plain
``[time, priority, seq, callback]`` lists rather than objects: list
construction is a single C call and heap comparisons short-circuit on the
leading floats without ever reaching the callback slot (``seq`` is unique).
Cancellation tombstones an entry by clearing its callback slot; tombstones
are skipped on pop and compacted away in bulk once they outnumber live
entries.

Beside the heap sits a *calendar queue* (a single-level timer wheel):
events due one bucket width or more from now land in coarse time buckets
instead of the heap, and a whole bucket spills into the heap just before
the simulation reaches its start. Large homogeneous timer populations —
the per-container eviction ticks of a 10k-container cluster, long-idle
port drain timers — therefore never inflate the heap (and every push/pop's
log factor) while they are minutes away. Routing is by due time alone and
never changes the order: every wheel entry takes its ``seq`` at schedule
time and keeps its ``(time, priority, seq)`` triple, and a bucket is
merged before any event at or past its start can pop, so the merged pop
order is bit-identical to scheduling everything on the heap.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

Callback = Callable[[], Any]

#: Entry slot indices (entries are ``[time, priority, seq, callback]``).
_TIME, _PRIORITY, _SEQ, _CALLBACK = 0, 1, 2, 3

#: Tombstone compaction kicks in only beyond this many cancelled entries,
#: so short-lived simulations never pay the rebuild.
_COMPACT_MIN_CANCELLED = 64

#: Width of one calendar-queue bucket in simulated seconds. Eviction
#: lifetimes are minute-scale (§5.1.1 traces), so 64 s buckets hold a few
#: spill batches per lifetime while events less than one bucket away go
#: straight to the heap (bucketing them would cost an extra hop for no
#: heap-size reduction).
_WHEEL_WIDTH = 64.0

_INF = math.inf


class Simulator:
    """A deterministic event-heap simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(sim.now + 5.0, lambda: fired.append(sim.now))
    >>> token = sim.schedule_at(7.0, lambda: fired.append(sim.now))
    >>> sim.cancel(token)
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._seq = 0
        self._events_processed = 0
        self._cancelled = 0
        # Calendar queue: bucket index -> unordered entry list, plus a
        # min-heap of pending bucket indices. Entries are the same
        # ``[time, priority, seq, callback]`` lists as the heap's, so a
        # spill is a plain extend+heapify and the merged order is exactly
        # what scheduling straight onto the heap would have produced.
        self._buckets: dict[int, list] = {}
        self._bucket_heap: list[int] = []
        self._wheel_count = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of entries still queued, on the heap or the wheel
        (including cancelled entries that have not yet been popped or
        compacted away)."""
        return len(self._heap) + self._wheel_count

    @property
    def cancelled_pending(self) -> int:
        """Number of cancelled entries still queued, on the heap or the
        wheel."""
        return self._cancelled

    def schedule_at(self, time: float, callback: Callback,
                    priority: int = 0, seq: Optional[int] = None) -> list:
        """Schedule ``callback`` at the absolute simulated ``time``.

        ``time`` must be finite and not before ``now`` (NaN is rejected).
        ``priority`` breaks ties among events at the same time: lower
        priorities fire first. ``seq`` (from :meth:`take_seq`) replaces
        the fresh tie-break number; the caller must not keep two live
        events under one seq — tied entries would compare on the callback
        slot. Events due one bucket width or more from now are parked on
        the wheel, the rest go on the heap; the pop order is the same
        either way.

        Returns the queued entry as an opaque token for :meth:`cancel`.
        """
        now = self._now
        if not now <= time < _INF:
            raise SimulationError(
                f"cannot schedule event at {time}: must be finite and "
                f"not before now ({now})")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        entry = [time, priority, seq, callback]
        if time - now >= _WHEEL_WIDTH:
            self._wheel_put(entry)
        else:
            heappush(self._heap, entry)
        return entry

    def cancel(self, token: list) -> None:
        """Prevent the event behind ``token`` (from :meth:`schedule_at`)
        from firing. Idempotent, and a no-op once the event has fired."""
        if token[_CALLBACK] is not None:
            token[_CALLBACK] = None
            cancelled = self._cancelled = self._cancelled + 1
            if (cancelled > _COMPACT_MIN_CANCELLED
                    and cancelled * 2 > len(self._heap) + self._wheel_count):
                self._compact()

    def take_seq(self) -> int:
        """Allocate one tie-break sequence number without scheduling.

        Flow-batched schedulers (:class:`~repro.cluster.network.NetworkModel`
        and ``DiskModel``) stamp every request with a seq at request time
        and later arm their shared drain timer via :meth:`schedule_at`
        under the head request's seq, so batched completions sort exactly
        where individually scheduled events would have.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def head_sorts_before(self, time: float, seq: int) -> bool:
        """Whether the next queued entry, cancelled or not, sorts before
        a priority-0 event at ``(time, seq)``.

        Flow-batched drains ask this for completions due at or before
        ``now``, from inside an event: the wheel then holds nothing at or
        before ``now`` (every bucket that could has spilled), so the heap
        front is the queue front.
        """
        heap = self._heap
        if not heap:
            return False
        top = heap[0]
        head_time = top[_TIME]
        if head_time != time:
            return head_time < time
        priority = top[_PRIORITY]
        return priority < 0 or (priority == 0 and top[_SEQ] < seq)

    def _wheel_put(self, entry: list) -> None:
        index = int(entry[_TIME] // _WHEEL_WIDTH)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heappush(self._bucket_heap, index)
        else:
            bucket.append(entry)
        self._wheel_count += 1

    def _spill_due(self) -> None:
        """Merge every bucket whose window has reached the heap front.

        A bucket must merge before any event at or after its start pops:
        all heap entries satisfy ``time >= now``, so spilling whenever
        ``bucket_start <= heap[0].time`` (or the heap is empty) guarantees
        no bucket entry can be late — a bucket held back has
        ``bucket_start > heap[0].time``, and every entry in it sorts after
        the current heap front.
        """
        heap = self._heap
        bucket_heap = self._bucket_heap
        while bucket_heap and (
                not heap or bucket_heap[0] * _WHEEL_WIDTH <= heap[0][_TIME]):
            index = heappop(bucket_heap)
            entries = self._buckets.pop(index)
            self._wheel_count -= len(entries)
            if len(entries) * 4 > len(heap):
                heap.extend(entries)
                heapify(heap)
            else:
                for entry in entries:
                    heappush(heap, entry)

    def step(self) -> bool:
        """Execute the next pending event; return False if none remain."""
        heap = self._heap
        while True:
            if self._bucket_heap:
                self._spill_due()
            if not heap:
                return False
            entry = heappop(heap)
            callback = entry[_CALLBACK]
            if callback is None:
                self._cancelled -= 1
                continue
            # Clear the slot so a later cancel() of this token is a no-op
            # and the tombstone count stays exact.
            entry[_CALLBACK] = None
            time = entry[_TIME]
            if time < self._now:
                raise SimulationError("event heap went backwards in time")
            self._now = time
            self._events_processed += 1
            callback()
            return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the event heap drains, ``until`` is reached, or
        ``max_events`` have been executed.

        When ``until`` is given, ``now`` always ends up at ``until`` —
        whether the heap drained early or later events remain queued.
        ``max_events`` is a safety valve against livelock in engine control
        loops; exceeding it raises :class:`SimulationError`.
        """
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time == _INF:
                break
            if until is not None and next_time > until:
                break
            self.step()
            executed += 1
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely livelock")
        if until is not None and until > self._now:
            self._now = until

    def peek_time(self) -> float:
        """Time of the next pending event (inf if none is queued)."""
        heap = self._heap
        while True:
            if self._bucket_heap:
                self._spill_due()
            if not heap:
                return _INF
            if heap[0][_CALLBACK] is None:
                heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0][_TIME]

    def _compact(self) -> None:
        """Drop cancelled entries from the heap and the wheel, in place.

        Pado's aggregation timers are cancelled whenever a buffer fills
        or its executor is evicted; under high eviction at large scale
        that is tens of thousands of cancels, and without compaction the
        heap (and every push/pop's log factor) grows with the cancellation
        count rather than the live event count.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[_CALLBACK] is not None]
        heapify(heap)
        wheel_count = 0
        for bucket in self._buckets.values():
            bucket[:] = [entry for entry in bucket
                         if entry[_CALLBACK] is not None]
            wheel_count += len(bucket)
        self._wheel_count = wheel_count
        self._cancelled = 0
