"""In-memory spans around the public entry points of each layer.

``SpanRecorder.install()`` wraps the entry points listed in
``ENTRY_POINTS`` (and counts simulator instances) from outside the
program; ``uninstall()`` puts the originals back. Each span records its
name, start, end, parent span and simulation id; every span opened inside
one ``execute_spec`` call shares that simulation's id (0 outside any
simulation). ``ledger()`` folds one pass's spans into the per-layer
numbers.

Only spans in this process are visible, so the workloads run their
simulations serially (``SweepRunner(workers=0)``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

#: ``(module, attribute path, span name)``. A span name's prefix up to
#: the first dot is its layer. ``compile_program`` is wrapped where the
#: Pado engine imported it by name.
ENTRY_POINTS = (
    ("repro.bench.runner", "SweepRunner.run", "runner.run"),
    ("repro.bench.runner", "SweepRunner.submit_many", "runner.submit_many"),
    ("repro.bench.runner", "SweepRunner.wait", "runner.wait"),
    ("repro.bench.runner", "execute_spec", "runner.execute_spec"),
    ("repro.bench.experiments", "make_workload", "build.make_workload"),
    ("repro.bench.runner", "build_engine", "build.build_engine"),
    ("repro.bench.runner", "build_cluster", "build.build_cluster"),
    ("repro.core.runtime.engine", "compile_program",
     "compile.compile_program"),
    ("repro.engines.base", "EngineBase.run", "engine.run"),
    ("repro.cluster.network", "NetworkModel.transfer", "network.transfer"),
    ("repro.cluster.network", "NetworkModel.transfer_many",
     "network.transfer_many"),
    ("repro.cluster.network", "NetworkModel.begin_plan",
     "network.begin_plan"),
    ("repro.cluster.network", "NetworkModel.plan_transfer",
     "network.plan_transfer"),
    ("repro.cluster.network", "NetworkModel.commit_plan",
     "network.commit_plan"),
    ("repro.cluster.tenancy.cluster", "MultiTenantCluster.run",
     "tenancy.run"),
    ("repro.predict.hazard", "HazardPredictor.expected_remaining",
     "predict.expected_remaining"),
    ("repro.predict.base", "LifetimePredictor.risk_rank",
     "predict.risk_rank"),
    ("repro.predict.hazard", "HazardPredictor.observe", "predict.observe"),
)

#: Span fields, in the order each span list holds them.
NAME, START, END, PARENT, SIM = range(5)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Records spans while installed; one pass at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.simulators: list = []
        self.evictions = 0
        self._stack: list[int] = []
        self._sim = 0
        self._sims_started = 0
        self._originals: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.simulators = []
        self.evictions = 0
        self._stack = []

    # -- wrappers

    def _wrap(self, name: str, fn, new_simulation: bool = False):
        recorder, clock = self, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            if new_simulation:
                recorder._sims_started += 1
                outer_sim = recorder._sim
                recorder._sim = recorder._sims_started
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    recorder._sim]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
                if new_simulation:
                    recorder._sim = outer_sim
            if name == "runner.wait":
                recorder.evictions += result.evictions
            return result

        return traced

    def install(self) -> None:
        from repro.cluster.events import Simulator
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(
                name, original,
                new_simulation=(name == "runner.execute_spec")))
        original_init = Simulator.__init__
        simulators = self

        @functools.wraps(original_init)
        def counted_init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            simulators.simulators.append(sim)

        self._originals.append((Simulator, "__init__", original_init))
        Simulator.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals = []

    # -- analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def ledger(self, wall_seconds: float) -> dict:
        """Per-layer numbers of one traced pass of ``wall_seconds``.

        A layer's *entries* are its spans whose parent belongs to another
        layer (or to none): their count is the layer's call count and their
        summed duration its inclusive time. Self time sums every span of
        the layer minus its children.
        """
        spans = self.spans
        entries: dict[str, list[list]] = {}
        self_s: dict[str, float] = {}
        for span, own in zip(spans, self.self_times()):
            layer = layer_of(span[NAME])
            self_s[layer] = self_s.get(layer, 0.0) + own
            parent = span[PARENT]
            if parent < 0 or layer_of(spans[parent][NAME]) != layer:
                entries.setdefault(layer, []).append(span)

        def inclusive(layer: str) -> float:
            return sum((s[END] - s[START] for s in entries.get(layer, ())),
                       0.0)

        def count(layer: str) -> int:
            return len(entries.get(layer, ()))

        jobs_ms = sorted((s[END] - s[START]) * 1e3
                         for s in spans if s[NAME] == "engine.run")
        roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
        runner_s = inclusive("runner")
        exec_s = sum(s[END] - s[START] for s in spans
                     if s[NAME] == "runner.execute_spec")
        return {
            "runner.specs": sum(1 for s in spans
                                if s[NAME] == "runner.execute_spec"),
            "runner.exec_s": exec_s,
            "runner.dispatch_s": runner_s - exec_s,
            "build.s": inclusive("build"),
            "compile.s": inclusive("compile"),
            "compile.calls": count("compile"),
            "engine.jobs": len(jobs_ms),
            "engine.run_s": inclusive("engine"),
            "engine.job_ms.p50": _percentile(jobs_ms, 50),
            "engine.job_ms.p90": _percentile(jobs_ms, 90),
            "events.processed": sum(sim.events_processed
                                    for sim in self.simulators),
            "network.requests": count("network"),
            "network.request_s": inclusive("network"),
            "manager.evictions": self.evictions,
            "tenancy.loop_self_s": self_s.get("tenancy", 0.0),
            "tenancy.dispatch_batches": sum(
                1 for s in spans if s[NAME] == "runner.submit_many"
                and s[PARENT] >= 0
                and layer_of(spans[s[PARENT]][NAME]) == "tenancy"),
            "predict.expected_remaining_s": sum(
                (s[END] - s[START] for s in entries.get("predict", ())
                 if s[NAME] == "predict.expected_remaining"), 0.0),
            "predict.calls": count("predict"),
            "trace.coverage": roots / wall_seconds if wall_seconds else 0.0,
            "trace.spans": len(spans),
        }

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, sim."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _percentile(sorted_values: list[float], q: int) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100,
                                method="inclusive")[q - 1]
