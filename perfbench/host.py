"""Host-side measurement: the host's speed, sampled while the work runs,
and the spread of a metric over runs."""

from __future__ import annotations

import gc
import heapq
import os
import random
import statistics
import threading
import time

#: Nodes in the reference loop's object graph, and pseudo-random numbers
#: in its table (a power of two).
GRAPH_NODES = 50_000
RANDOM_TABLE = 1 << 16
#: Normalised times are for a host on which one sample takes
#: ``NOMINAL_SAMPLE_SECONDS`` of CPU time: about the median on the 2-vCPU
#: Xeon @ 2.1 GHz the benchmark was calibrated on, so normalised times
#: read close to host seconds there.
NOMINAL_SAMPLE_SECONDS = 0.004


def pin_to_one_cpu() -> int:
    """Restrict this process, and the processes it starts from now on, to
    the highest-numbered CPU it may use; return that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class _Node:
    __slots__ = ("load", "peers")


class ReferenceLoop:
    """A fixed miniature of the program's hot path: an event loop that
    pops ``(time, sequence, node)`` tuples off a heap, updates the node,
    and pushes two successors picked pseudo-randomly from a graph of
    ``GRAPH_NODES`` objects. Its time follows what moves the program's:
    interpreter speed, heap and attribute access, and misses in the
    caches. It is code of the benchmark, not of the program, so a faster
    program does not make it faster."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self.nodes = [_Node() for _ in range(GRAPH_NODES)]
        for index, node in enumerate(self.nodes):
            node.load = 0.0
            node.peers = [self.nodes[rng.randrange(index + 1)]
                          for _ in range(4)]
        self.randoms = [rng.randrange(1 << 20) for _ in range(RANDOM_TABLE)]
        self.cursor = 0

    def run(self, steps: int) -> None:
        nodes, randoms, mask = self.nodes, self.randoms, RANDOM_TABLE - 1
        heap = [(0.0, 0, nodes[0])]
        start, sequence = self.cursor, 1
        for _ in range(steps):
            now, _, node = heapq.heappop(heap)
            node.load += 1.0
            for _ in (0, 1):
                delay = (randoms[(start + sequence) & mask] & 1023) * 0.001
                successor = nodes[randoms[(start + 7 * sequence) & mask]
                                  % GRAPH_NODES]
                heapq.heappush(heap, (now + delay, sequence, successor))
                sequence += 1
            if len(heap) > 256:
                heap = heap[:128]
                heapq.heapify(heap)
        self.cursor = (start + sequence) & mask


class SpeedSampler:
    """Samples how fast the host runs the program, from a thread of
    ``run.py`` on the same CPU as the interpreter that runs the pass
    (``pin_to_one_cpu``).

    Every ``PERIOD`` seconds the thread runs ``ReferenceLoop`` for
    ``STEPS`` steps (about 3-4 ms) and records its thread CPU time.
    ``normalised`` rescales a time measured while the sampler ran to a
    host on which a sample takes ``NOMINAL_SAMPLE_SECONDS``: it divides
    by the mean sample inside the measured interval over that nominal
    value. ``sampling_seconds`` is the CPU time the sampler took inside
    an interval, which the pass waited for on the shared CPU.

    Sampling on the pass's own CPU sees what the pass sees: a busy sibling
    hardware thread, the core's clock, contention for caches and memory.
    Samples from the other CPU, an arithmetic loop or random reads of a
    buffer tracked the pass's speed worse (see ``README.md``).
    Sampling during the work tracks host speed far better than loops run
    before and after it: the speed changes within seconds.
    """

    PERIOD = 0.05
    STEPS = 800

    def __init__(self) -> None:
        self._loop = ReferenceLoop()
        # The loop's graph lives as long as this process; keep the
        # collector from scanning it in the middle of a sample.
        gc.freeze()
        #: ``(start, CPU seconds)`` per sample.
        self._samples: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            started, cpu_started = time.perf_counter(), time.thread_time()
            self._loop.run(self.STEPS)
            sample = (started, time.thread_time() - cpu_started)
            with self._lock:
                self._samples.append(sample)

    def _inside(self, began: float, ended: float) -> list[float]:
        with self._lock:
            return [s[1] for s in self._samples if began <= s[0] < ended]

    def sampling_seconds(self, began: float, ended: float) -> float:
        return sum(self._inside(began, ended))

    def normalised(self, seconds: float, began: float,
                   ended: float) -> float:
        """``seconds`` spent between ``began`` and ``ended``
        (``perf_counter`` instants), rescaled to nominal host speed."""
        speed = self._inside(began, ended)
        if not speed:
            with self._lock:
                speed = [s[1] for s in self._samples if s[0] < ended][-1:]
        if not speed:
            raise RuntimeError("speed sampler has no sample yet")
        return seconds * NOMINAL_SAMPLE_SECONDS / statistics.fmean(speed)

    def reference_seconds(self) -> float:
        """Median sample, CPU seconds."""
        with self._lock:
            return statistics.median(s[1] for s in self._samples)


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
