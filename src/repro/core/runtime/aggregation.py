"""Task-output partial aggregation (§3.2.7).

When an operator's aggregation logic is commutative and associative, outputs
of tasks running on the same transient executor and destined for the same
reserved receiver are merged before transmission. This cuts both the bytes
the few reserved executors must absorb (e.g. 303 partially-aggregated
gradient vectors instead of 550 in MLR, §5.2.2) and the state they maintain.

Because buffered data lingers on the eviction-prone executor, each buffer
escapes once it covers ``max_tasks`` task outputs or after ``max_delay``
seconds, whichever comes first — the paper's upper limits on time and number
of aggregated tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.cluster.events import Simulator
from repro.dataflow.functions import CombineFn


@dataclass
class Contribution:
    """One task's routed output share destined for one receiver."""

    producer_key: Hashable      # (chain name, task index)
    size_bytes: float
    payload: Optional[list]


@dataclass
class FlushBatch:
    """A merged batch handed to the transfer layer."""

    contributions: list[Contribution]
    merged_size_bytes: float
    merged_payload: Optional[list]


def merge_payloads(combiner: CombineFn, payloads: list[list],
                   keyed: bool) -> list:
    """Merge real record payloads with the combiner.

    ``keyed`` selects per-key merging (many-to-many shuffle data, records
    are ``(key, value)``) versus a single global accumulator (many-to-one
    aggregation). Both rely on the combiner's associativity, so partially
    merged values remain valid inputs for the downstream operator.
    """
    if keyed:
        groups: dict[Any, Any] = {}
        for records in payloads:
            for key, value in records:
                if key in groups:
                    groups[key] = combiner.merge(groups[key], value)
                else:
                    groups[key] = value
        return sorted(groups.items(), key=lambda kv: repr(kv[0]))
    acc: Any = None
    first = True
    for records in payloads:
        for value in records:
            acc = value if first else combiner.merge(acc, value)
            first = False
    return [] if first else [acc]


class AggregationBuffer:
    """Per-(executor, receiver) buffer of outbound contributions."""

    def __init__(self, sim: Simulator, combiner: CombineFn, keyed: bool,
                 max_tasks: int, max_delay: float,
                 flush_fn: Callable[[FlushBatch], None]) -> None:
        if max_tasks < 1:
            raise ValueError("max_tasks must be at least 1")
        if max_delay <= 0:
            raise ValueError("max_delay must be positive")
        self._sim = sim
        self._combiner = combiner
        self._keyed = keyed
        self._max_tasks = max_tasks
        self._max_delay = max_delay
        self._flush_fn = flush_fn
        self._pending: list[Contribution] = []
        self._timer: Optional[list] = None  # Simulator.cancel token
        self.flushes = 0

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def add(self, contribution: Contribution) -> None:
        """Buffer one contribution; may trigger an immediate flush."""
        self._pending.append(contribution)
        if len(self._pending) >= self._max_tasks:
            self.flush()
        elif self._timer is None:
            self._timer = self._sim.schedule_at(
                self._sim.now + self._max_delay, self._on_timer)

    def flush(self) -> None:
        """Merge and emit everything buffered so far."""
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None
        if not self._pending:
            return
        contributions = self._pending
        self._pending = []
        sizes = [c.size_bytes for c in contributions]
        merged_size = float(self._combiner.merged_size_bytes(sizes))
        merged_payload: Optional[list] = None
        if all(c.payload is not None for c in contributions):
            merged_payload = merge_payloads(
                self._combiner, [c.payload for c in contributions],
                self._keyed)
        self.flushes += 1
        self._flush_fn(FlushBatch(contributions=contributions,
                                  merged_size_bytes=merged_size,
                                  merged_payload=merged_payload))

    def discard(self) -> list[Contribution]:
        """Drop buffered data (executor evicted); returns what was lost."""
        if self._timer is not None:
            self._sim.cancel(self._timer)
            self._timer = None
        lost = self._pending
        self._pending = []
        return lost

    def _on_timer(self) -> None:
        self._timer = None
        self.flush()
