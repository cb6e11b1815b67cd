"""Network and disk bandwidth model.

We model every bandwidth-limited device (a container's NIC direction, a
container's local disk, a storage server) as a FIFO queue: a request starts
when the device becomes free, occupies it for ``size / bandwidth`` seconds,
and the device is busy until then. A network transfer occupies the source's
outbound port and the destination's inbound port simultaneously, so transfer
time is driven by the more contended endpoint — the effect behind the paper's
observation that 5 stable-storage nodes serve shuffle data far slower than 45
executors (§5.2.1).

Transfers fail if the source container dies before the transfer completes;
eviction events are scheduled with a higher priority than transfer
completions, so a transfer completing at exactly the eviction instant is
conservatively counted as lost.

Completion scheduling is *flow batched*: because ``FifoPort.reserve`` fixes
every request's finish time deterministically at request time, each transfer
is queued on its bottleneck port's ``pending`` deque — where finish times
are monotone non-decreasing — and a single armed timer per port fires all
due completions, instead of one simulator event plus one closure per
transfer. To keep batching bit-identical to per-transfer scheduling, every
request takes a :meth:`~repro.cluster.events.Simulator.take_seq` tie-break
number at request time, the timer is armed *under the head request's seq*,
and the drain defers to any queued event that would have preceded the next
completion under ``(time, priority, seq)`` ordering. Simulated times, byte
counters, failure semantics, and same-timestamp event order are identical;
only the event count changes.

In-flight records themselves are packed into a :class:`TransferPool`: the
pending deques hold integer row indices into parallel arrays (finish time,
seq, endpoints, size, callback), and completed rows are recycled through a
free list, so steady-state traffic allocates no per-transfer objects.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterable, Optional, Protocol

from repro.cluster.events import Simulator
from repro.cluster.resources import Container
from repro.obs.events import DiskIO, Transfer
from repro.obs.tracer import Tracer

#: Event priority used for container evictions/failures so that they are
#: processed before transfer and task completions at the same timestamp.
EVICTION_PRIORITY = -10

#: Marks single-``transfer`` entries in the shared per-port queues; their
#: ``on_done`` takes just the result (no tag argument).
_NO_TAG = object()


def endpoint_label(endpoint: "Endpoint") -> str:
    """Trace label for an endpoint: ``reserved:<id>``, ``transient:<id>``,
    or ``ext`` for infinite endpoints (stores, the master, the sink)."""
    container = getattr(endpoint, "container", None)
    if container is None:
        return "ext"
    kind = "reserved" if container.is_reserved else "transient"
    return f"{kind}:{container.container_id}"


class FifoPort:
    """A bandwidth-limited device serving requests in FIFO order."""

    __slots__ = ("bandwidth", "_free_at", "_bytes_served", "pending",
                 "armed")

    def __init__(self, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self._free_at = 0.0
        self._bytes_served = 0.0
        #: Completion queue owned by the flow scheduler (NetworkModel or
        #: DiskModel) this port bottlenecks for: records in finish-time
        #: order, drained by one armed timer instead of one event each.
        self.pending: deque = deque()
        self.armed = False

    def reserve(self, now: float, size_bytes: float) -> tuple[float, float]:
        """Reserve the port for ``size_bytes``; returns (start, end) times."""
        start = max(now, self._free_at)
        end = start + size_bytes / self.bandwidth
        self._free_at = end
        self._bytes_served += size_bytes
        return start, end

    @property
    def bytes_served(self) -> int:
        """Bytes served so far, rounded once at read time (the counter
        accumulates exact float sizes, so fractional shares don't drift)."""
        return round(self._bytes_served)

    def free_at(self) -> float:
        return self._free_at


class Endpoint(Protocol):
    """Anything a transfer can start from or arrive at."""

    def outbound(self) -> FifoPort: ...

    def inbound(self) -> FifoPort: ...

    def is_alive(self) -> bool: ...


class ContainerEndpoint:
    """Network endpoint backed by a container's NIC (full duplex)."""

    def __init__(self, container: Container) -> None:
        self.container = container
        self._out = FifoPort(container.spec.network_bandwidth)
        self._in = FifoPort(container.spec.network_bandwidth)

    def outbound(self) -> FifoPort:
        return self._out

    def inbound(self) -> FifoPort:
        return self._in

    def is_alive(self) -> bool:
        return self.container.alive


class InfiniteEndpoint:
    """An endpoint that is never the bottleneck (e.g. the S3-like input
    store, whose aggregate bandwidth far exceeds any single reader's NIC)."""

    def __init__(self, bandwidth: float = math.inf) -> None:
        self._port = _InfinitePort() if math.isinf(bandwidth) else \
            FifoPort(bandwidth)

    def outbound(self) -> FifoPort:
        return self._port  # type: ignore[return-value]

    def inbound(self) -> FifoPort:
        return self._port  # type: ignore[return-value]

    def is_alive(self) -> bool:
        return True


class _InfinitePort:
    """FifoPort stand-in with unlimited bandwidth."""

    bandwidth = math.inf

    def __init__(self) -> None:
        self._bytes_served = 0.0
        self.pending: deque = deque()
        self.armed = False

    def reserve(self, now: float, size_bytes: float) -> tuple[float, float]:
        self._bytes_served += size_bytes
        return now, now

    @property
    def bytes_served(self) -> int:
        return round(self._bytes_served)

    def free_at(self) -> float:
        return 0.0


class TransferResult:
    """Outcome passed to a transfer's completion callback."""

    __slots__ = ("ok", "finished_at", "size_bytes")

    def __init__(self, ok: bool, finished_at: float, size_bytes: int) -> None:
        self.ok = ok
        self.finished_at = finished_at
        self.size_bytes = size_bytes


class TransferPool:
    """Record-packed in-flight transfer state, indexed by integer row.

    Port ``pending`` deques hold small ints naming rows in these parallel
    arrays instead of per-transfer 8-tuples; a completed row returns to a
    LIFO free list and is reused by the next request, so steady-state
    traffic allocates no per-transfer objects at all. The same row layout
    serves disk I/O (``src``/``dst`` unused, ``tag`` holds the is_write
    flag), letting :class:`DiskModel` instances share one pool.
    """

    __slots__ = ("finish", "seq", "src", "dst", "size", "requested_at",
                 "on_done", "tag", "_free")

    def __init__(self, capacity: int = 0) -> None:
        self.finish = [0.0] * capacity
        self.seq = [0] * capacity
        self.src: list = [None] * capacity
        self.dst: list = [None] * capacity
        self.size = [0.0] * capacity
        self.requested_at = [0.0] * capacity
        self.on_done: list = [None] * capacity
        self.tag: list = [None] * capacity
        self._free = list(range(capacity - 1, -1, -1))

    def alloc(self, finish: float, seq: int, src, dst, size: float,
              requested_at: float, on_done, tag) -> int:
        free = self._free
        if free:
            row = free.pop()
        else:
            row = len(self.finish)
            self.finish.append(0.0)
            self.seq.append(0)
            self.src.append(None)
            self.dst.append(None)
            self.size.append(0.0)
            self.requested_at.append(0.0)
            self.on_done.append(None)
            self.tag.append(None)
        self.finish[row] = finish
        self.seq[row] = seq
        self.src[row] = src
        self.dst[row] = dst
        self.size[row] = size
        self.requested_at[row] = requested_at
        self.on_done[row] = on_done
        self.tag[row] = tag
        return row

    def release(self, row: int) -> None:
        # Drop object references so recycled rows don't pin endpoints or
        # closures; scalar columns are overwritten on the next alloc.
        self.src[row] = None
        self.dst[row] = None
        self.on_done[row] = None
        self.tag[row] = None
        self._free.append(row)

    def in_flight(self) -> int:
        """Rows currently allocated (in some port's pending deque)."""
        return len(self.finish) - len(self._free)


class NetworkModel:
    """Schedules point-to-point transfers on the simulator.

    Beyond one-at-a-time :meth:`transfer`, whole fetch plans can be
    reserved in bulk: :meth:`transfer_many` takes ``(src, dst, size, tag)``
    requests sharing a single ``on_done(tag, result)`` callback, and the
    :meth:`begin_plan` / :meth:`plan_transfer` / :meth:`commit_plan` trio
    lets a master collect a plan while walking its fetch specs. Plans nest
    (a fetch cascade may launch tasks that open their own plan); entries
    queue on one shared buffer and reserve when the outermost plan commits.
    Each queued entry takes its tie-break seq at queue time, and a plain
    :meth:`transfer` issued while a plan is open flushes the queued
    entries first, so both port reservation order and same-timestamp event
    order always equal request order — the properties the bit-identical
    parity goldens rest on.
    """

    def __init__(self, sim: Simulator, latency: float = 0.001,
                 tracer: Optional[Tracer] = None) -> None:
        self._sim = sim
        self.latency = latency
        self.tracer = tracer
        self.bytes_transferred = 0
        self.transfers_failed = 0
        # Interned endpoint labels; only populated when a tracer is
        # attached (the untraced path never formats a label).
        self._labels: dict = {}
        self._plan: list = []
        self._plan_depth = 0
        self._pool = TransferPool()

    def _label(self, endpoint: Endpoint) -> str:
        label = self._labels.get(endpoint)
        if label is None:
            label = endpoint_label(endpoint)
            self._labels[endpoint] = label
        return label

    # ------------------------------------------------------------------
    # transfer APIs

    def transfer(self, src: Endpoint, dst: Endpoint, size_bytes: float,
                 on_done: Callable[[TransferResult], None]) -> None:
        """Move ``size_bytes`` from ``src`` to ``dst``.

        ``on_done`` fires once with a :class:`TransferResult`; ``ok`` is False
        if either endpoint died before completion (the data never arrived).
        Zero-byte transfers still pay one network latency, modelling control
        messages such as output commits (§3.2.5).
        """
        if size_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        if self._plan:
            self._flush_plan()
        if not src.is_alive() or not dst.is_alive():
            self._fail_dead(src, dst, size_bytes, on_done, _NO_TAG)
            return
        self._enqueue(src, dst, size_bytes, on_done, _NO_TAG)

    def transfer_many(self, requests: Iterable[tuple],
                      on_done: Callable) -> None:
        """Reserve a whole fetch plan in one call.

        ``requests`` yields ``(src, dst, size_bytes, tag)``;
        ``on_done(tag, result)`` fires once per request at exactly the
        finish time the same sequence of :meth:`transfer` calls would
        produce, but the whole plan shares one completion callback and
        (per bottleneck port) one armed timer.
        """
        for src, dst, size_bytes, tag in requests:
            if size_bytes < 0:
                raise ValueError("transfer size must be non-negative")
            if not src.is_alive() or not dst.is_alive():
                self._fail_dead(src, dst, size_bytes, on_done, tag)
                continue
            self._enqueue(src, dst, size_bytes, on_done, tag)

    # ------------------------------------------------------------------
    # open fetch plans

    @property
    def plan_open(self) -> bool:
        """True while a bulk fetch plan is being collected."""
        return self._plan_depth > 0

    def begin_plan(self) -> None:
        """Open a bulk plan: :meth:`plan_transfer` entries queue until the
        matching :meth:`commit_plan`. Plans nest; entries reserve when the
        outermost plan commits (or earlier, if a plain :meth:`transfer`
        forces a flush)."""
        self._plan_depth += 1

    def plan_transfer(self, src: Endpoint, dst: Endpoint, size_bytes: float,
                      tag, on_done: Callable) -> None:
        """Queue one entry on the open plan; ``on_done(tag, result)``
        fires at completion exactly as a :meth:`transfer` issued here
        would have (the entry's tie-break seq is taken now)."""
        if size_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        self._plan.append((src, dst, size_bytes, tag, on_done,
                           self._sim.take_seq()))

    def commit_plan(self) -> None:
        """Close one plan level; the outermost close reserves and schedules
        everything still queued."""
        self._plan_depth -= 1
        if self._plan_depth == 0 and self._plan:
            self._flush_plan()

    def _flush_plan(self) -> None:
        # Reserve queued plan entries now so an interleaved plain transfer
        # cannot overtake them on a shared port. Liveness is checked at
        # flush time, which is equivalent to queue time: the whole
        # queue-and-flush happens within one simulator event, so no
        # eviction can interleave.
        plan = self._plan
        self._plan = []
        for src, dst, size_bytes, tag, on_done, seq in plan:
            if not src.is_alive() or not dst.is_alive():
                self._fail_dead(src, dst, size_bytes, on_done, tag, seq)
            else:
                self._enqueue(src, dst, size_bytes, on_done, tag, seq)

    # ------------------------------------------------------------------
    # scheduling

    def _fail_dead(self, src: Endpoint, dst: Endpoint, size_bytes: float,
                   on_done: Callable, tag, seq: Optional[int] = None) -> None:
        now = self._sim.now
        self.transfers_failed += 1
        if self.tracer is not None:
            self.tracer.emit(Transfer(time=now, src=self._label(src),
                                      dst=self._label(dst),
                                      size_bytes=float(size_bytes),
                                      requested_at=now, ok=False))
        result = TransferResult(False, now, int(size_bytes))
        if tag is _NO_TAG:
            callback = lambda: on_done(result)  # noqa: E731
        else:
            callback = lambda: on_done(tag, result)  # noqa: E731
        self._sim.schedule_at(now, callback, seq=seq)

    def _enqueue(self, src: Endpoint, dst: Endpoint, size_bytes: float,
                 on_done: Callable, tag, seq: Optional[int] = None) -> None:
        sim = self._sim
        now = sim.now
        if seq is None:
            seq = sim.take_seq()
        sport = src.outbound()
        dport = dst.inbound()
        _, src_end = sport.reserve(now, size_bytes)
        _, dst_end = dport.reserve(now, size_bytes)
        # The transfer completes when its *bottleneck* port frees (ties go
        # to the destination), so each port's pending queue stays sorted by
        # finish time and needs only one armed timer.
        if src_end > dst_end:
            port, finish = sport, src_end + self.latency
        else:
            port, finish = dport, dst_end + self.latency
        port.pending.append(self._pool.alloc(
            finish, seq, src, dst, size_bytes, now, on_done, tag))
        if not port.armed:
            port.armed = True
            sim.schedule_at(finish, lambda: self._drain(port), seq=seq)

    def _drain(self, port: FifoPort) -> None:
        sim = self._sim
        now = sim.now
        head_sorts_before = sim.head_sorts_before
        pending = port.pending
        tracer = self.tracer
        pool = self._pool
        finish_col = pool.finish
        seq_col = pool.seq
        while pending:
            row = pending[0]
            finish = finish_col[row]
            if finish > now:
                break
            # Defer to any queued event that would have sorted before this
            # completion under per-transfer scheduling — including entries
            # appended by the callbacks below, whose fresh seqs land after
            # everything already queued at this timestamp.
            if head_sorts_before(finish, seq_col[row]):
                break
            pending.popleft()
            src = pool.src[row]
            dst = pool.dst[row]
            size_bytes = pool.size[row]
            requested_at = pool.requested_at[row]
            on_done = pool.on_done[row]
            tag = pool.tag[row]
            # Recycle before the callback runs: any transfer it enqueues
            # reuses this row (the values above are already in locals).
            pool.release(row)
            ok = src.is_alive() and dst.is_alive()
            if ok:
                self.bytes_transferred += int(size_bytes)
            else:
                self.transfers_failed += 1
            if tracer is not None:
                tracer.emit(Transfer(time=now, src=self._label(src),
                                     dst=self._label(dst),
                                     size_bytes=float(size_bytes),
                                     requested_at=requested_at, ok=ok))
            if tag is _NO_TAG:
                on_done(TransferResult(ok, now, int(size_bytes)))
            else:
                on_done(tag, TransferResult(ok, now, int(size_bytes)))
        if pending:
            row = pending[0]
            sim.schedule_at(finish_col[row], lambda: self._drain(port),
                            seq=seq_col[row])
        else:
            port.armed = False


class DiskModel:
    """Local-disk bandwidth of a container, shared by reads and writes.

    I/O completions batch through the disk port's pending queue the same
    way network transfers do: one armed timer per busy period instead of
    one simulator event per request. With a tracer attached every
    completed (or failed) I/O emits a :class:`~repro.obs.events.DiskIO`
    event.
    """

    def __init__(self, sim: Simulator, container: Container,
                 tracer: Optional[Tracer] = None,
                 pool: Optional[TransferPool] = None) -> None:
        self._sim = sim
        self.container = container
        self.tracer = tracer
        self._port = FifoPort(container.spec.disk_bandwidth)
        self._pool = pool if pool is not None else TransferPool()
        self._bytes_written = 0.0
        self._bytes_read = 0.0

    @property
    def bytes_written(self) -> int:
        return round(self._bytes_written)

    @property
    def bytes_read(self) -> int:
        return round(self._bytes_read)

    def write(self, size_bytes: float,
              on_done: Optional[Callable[[bool], None]] = None) -> None:
        self._io(size_bytes, on_done, is_write=True)

    def read(self, size_bytes: float,
             on_done: Optional[Callable[[bool], None]] = None) -> None:
        self._io(size_bytes, on_done, is_write=False)

    def _io(self, size_bytes: float,
            on_done: Optional[Callable[[bool], None]], is_write: bool) -> None:
        if size_bytes < 0:
            raise ValueError("I/O size must be non-negative")
        sim = self._sim
        now = sim.now
        seq = sim.take_seq()
        port = self._port
        _, end = port.reserve(now, size_bytes)
        port.pending.append(self._pool.alloc(
            end, seq, None, None, size_bytes, now, on_done, is_write))
        if not port.armed:
            port.armed = True
            sim.schedule_at(end, self._drain, seq=seq)

    def _drain(self) -> None:
        sim = self._sim
        now = sim.now
        head_sorts_before = sim.head_sorts_before
        port = self._port
        pending = port.pending
        tracer = self.tracer
        pool = self._pool
        finish_col = pool.finish
        seq_col = pool.seq
        while pending:
            row = pending[0]
            end = finish_col[row]
            if end > now:
                break
            if head_sorts_before(end, seq_col[row]):
                break
            pending.popleft()
            size_bytes = pool.size[row]
            requested_at = pool.requested_at[row]
            on_done = pool.on_done[row]
            is_write = pool.tag[row]
            pool.release(row)
            ok = self.container.alive
            if ok:
                if is_write:
                    self._bytes_written += size_bytes
                else:
                    self._bytes_read += size_bytes
            if tracer is not None:
                container = self.container
                tracer.emit(DiskIO(
                    time=now, container=container.container_id,
                    resource=("reserved" if container.is_reserved
                              else "transient"),
                    op="write" if is_write else "read",
                    size_bytes=float(size_bytes), requested_at=requested_at,
                    ok=ok))
            if on_done is not None:
                on_done(ok)
        if pending:
            row = pending[0]
            sim.schedule_at(finish_col[row], self._drain, seq=seq_col[row])
        else:
            port.armed = False
