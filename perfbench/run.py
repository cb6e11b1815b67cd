"""Host-time benchmark of the Pado reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure-grid --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics. Each pass runs in a fresh interpreter (``one_pass.py``). Either
way every simulation's output digest is checked, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
PINNED = HERE / "digests.json"

WORKLOAD_NAMES = ("figure-grid", "tenant-cell", "predict-waves")
#: Interpreters run under ``-X importtime`` in the traced run.
IMPORT_PROBES = 3
#: Every run makes at least this many passes: each is checked against
#: the first, and the median of three passes resists one slow pass.
MIN_PASSES = 3
PROBE_TIMEOUT = 60.0
PASS_TIMEOUT = 120.0


def compile_bytecode() -> None:
    """Write bytecode for the program and the benchmark before anything
    is timed; without it imports take about a quarter longer."""
    for directory in (SRC, HERE):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise SystemExit(f"perfbench: cannot compile {directory}")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_pass(workload: str, seed: int, trace: int = 0,
               spans=None) -> tuple[float, dict]:
    """Run one pass in a fresh interpreter (``one_pass.py``):
    ``(instant it was started, its result)``."""
    command = [sys.executable, str(HERE / "one_pass.py"), "--workload",
               workload, "--seed", str(seed), "--trace", str(trace)]
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.perf_counter()
    done = subprocess.run(command, env=program_env(), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: a pass of {workload} exited with "
                         f"code {done.returncode}")
    return started, json.loads(done.stdout.strip().splitlines()[-1])


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def import_seconds(workload: str) -> tuple[float, float]:
    """``(all imports, third-party imports)`` of the benchmark's program
    modules, from ``python -X importtime`` (median of ``IMPORT_PROBES``).

    Third-party time sums the cumulative time of each imported module
    that is neither standard library nor this repository's, counted only
    where its importer is not itself third-party (numpy and scipy,
    reached through ``repro.trace.bspline``).
    """
    own = {"repro", "workloads", "one_pass"}
    totals, third = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", str(HERE / "one_pass.py"),
             "--workload", workload, "--import-only"],
            env=program_env(), capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT)
        rows = []
        for line in done.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                rows.append((int(match.group(2)), len(match.group(3)),
                             match.group(4)))

        def foreign(name: str) -> bool:
            root = name.split(".")[0]
            return root not in own and root not in sys.stdlib_module_names

        total = third_party = 0
        for index, (cumulative_us, depth, name) in enumerate(rows):
            if name == "workloads":
                total = cumulative_us
            if not foreign(name):
                continue
            # importtime prints a module after its imports, one level
            # deeper: the importer is the next row that is shallower.
            importer = next((row[2] for row in rows[index + 1:]
                             if row[1] < depth), None)
            if importer is None or not foreign(importer):
                third_party += cumulative_us
        totals.append(total / 1e6)
        third.append(third_party / 1e6)
    return statistics.median(totals), statistics.median(third)


def load_pinned(seed: int) -> dict:
    with open(PINNED) as handle:
        data = json.load(handle)
    return data["workloads"] if data["seed"] == seed else {}


class OutputCheck:
    """Counts failed outputs: every output of a cell that raised, and
    every digest that differs from the same cell's first pass in this run
    or from the pinned digests (a list of per-cell digest lists, empty off
    the pinned seed)."""

    def __init__(self, pinned: list) -> None:
        self.pinned = pinned
        self.first: dict[int, list[str]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, cell: int, outputs: int, digests) -> None:
        self.attempted += outputs
        if digests is None:
            self.failed += outputs
            return
        first = self.first.setdefault(cell, digests)
        expected = [first] + ([self.pinned[cell]] if self.pinned else [])
        for index in range(outputs):
            got = digests[index] if index < len(digests) else None
            if any(index >= len(ref) or ref[index] != got
                   for ref in expected):
                self.failed += 1


def run_passes(name: str, seed: int, check: OutputCheck, seconds: float,
               sampler, trace: bool = False, spans=None) -> list[dict]:
    """Run passes, each in a fresh interpreter, until ``seconds`` are
    used (at least ``MIN_PASSES``), and check their outputs.

    A pass's set-up time (interpreter start until it could begin) and
    each cell's wall and CPU time are normalised for host speed by
    ``sampler``, which samples in this process, on the pass's CPU, while
    the pass's interpreter runs. With ``trace``, even-numbered passes (the
    first included) are traced, and the last traced one writes ``spans``.
    """
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        began, this = start_pass(name, seed, int(traced),
                                 spans if traced else None)
        setup = this["ready"] - began
        this.update(setup=setup, traced=traced, setup_norm=normalised(
            sampler, setup, began, this["ready"]))
        for index, digests in enumerate(this["digests"]):
            check.check(index, this["outputs"][index], digests)
        for cell in this["cells"]:
            cell["wall_norm"] = normalised(sampler, cell["wall"],
                                           cell["began"], cell["ended"])
            cell["cpu_norm"] = sampler.normalised(
                cell["cpu"], cell["began"], cell["ended"])
        for key in ("wall", "cpu", "wall_norm", "cpu_norm"):
            this[key] = sum(cell[key] for cell in this["cells"])
        passes.append(this)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and \
                now - started + 0.5 * (now - began) >= seconds:
            return passes


def normalised(sampler, wall: float, began: float, ended: float) -> float:
    """A wall time of the pass's interpreter, less the time it waited for
    the sampler on their shared CPU, normalised for host speed."""
    wall -= sampler.sampling_seconds(began, ended)
    return sampler.normalised(wall, began, ended)


def pass_median(passes: list[dict], key: str) -> float:
    """One pass's ``key``: the sum over cells of each cell's median."""
    return sum(statistics.median(p["cells"][index][key] for p in passes)
               for index in range(len(passes[0]["cells"])))


def timed_run(name: str, seed: int, seconds: float,
              pinned=None) -> dict:
    """The end-to-end metrics of one run, tracing off. ``pinned``
    replaces the pinned digests (tests corrupt them)."""
    from host import SpeedSampler, pin_to_one_cpu
    if pinned is None:
        pinned = load_pinned(seed).get(name, [])
    check = OutputCheck(pinned)
    pin_to_one_cpu()
    with SpeedSampler() as sampler:
        passes = run_passes(name, seed, check, seconds, sampler)
    return {
        "check": check,
        "passes": passes,
        "metrics": {
            "setup_s": (statistics.median(p["setup_norm"] for p in passes),
                        "s"),
            "wall_s": (pass_median(passes, "wall_norm"), "s"),
            "cpu_s": (pass_median(passes, "cpu_norm"), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        },
        "raw": {"setup_raw_s": statistics.median(p["setup"]
                                                 for p in passes),
                "wall_raw_s": pass_median(passes, "wall"),
                "cpu_raw_s": pass_median(passes, "cpu"),
                "host_ref_s": sampler.reference_seconds()},
    }


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """The per-layer metrics: traced passes alternating with untraced
    ones, the first pass traced."""
    from host import SpeedSampler, pin_to_one_cpu
    import_s, third_party_s = import_seconds(name)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    check = OutputCheck(load_pinned(seed).get(name, []))
    pin_to_one_cpu()
    with SpeedSampler() as sampler:
        passes = run_passes(name, seed, check, seconds, sampler,
                            trace=True, spans=spans_path)
    ledgers = [p["ledger"] for p in passes if p["traced"]]

    # Overhead and per-event cost use normalised pass times, so drift
    # between the traced and untraced passes does not enter them.
    traced = [p["wall_norm"] for p in passes if p["traced"]]
    untraced = [p["wall_norm"] for p in passes if not p["traced"]]
    last = ledgers[-1]

    def median_of(key: str) -> float:
        return statistics.median(ledger[key] for ledger in ledgers)

    untraced_wall = statistics.median(untraced)
    events = last["events.processed"]
    values = {
        "setup.import_s": import_s,
        "setup.import_third_party_s": third_party_s,
        "runner.specs": last["runner.specs"],
        "runner.exec_s": median_of("runner.exec_s"),
        "runner.dispatch_s": median_of("runner.dispatch_s"),
        "build.s": median_of("build.s"),
        "compile.s": median_of("compile.s"),
        "compile.calls": last["compile.calls"],
        "engine.jobs": last["engine.jobs"],
        "engine.run_s": median_of("engine.run_s"),
        "engine.job_ms.p50": median_of("engine.job_ms.p50"),
        "engine.job_ms.p90": median_of("engine.job_ms.p90"),
        "events.processed": events,
        "events.host_us_per_event": (untraced_wall / events * 1e6
                                     if events else 0.0),
        "network.requests": last["network.requests"],
        "network.request_s": median_of("network.request_s"),
        "manager.evictions": last["manager.evictions"],
        "tenancy.loop_self_s": median_of("tenancy.loop_self_s"),
        "tenancy.dispatch_batches": last["tenancy.dispatch_batches"],
        "predict.expected_remaining_s": median_of(
            "predict.expected_remaining_s"),
        "predict.calls": last["predict.calls"],
        "host.ref_s": sampler.reference_seconds(),
        "trace.overhead": statistics.median(traced) / untraced_wall,
        "trace.coverage": median_of("trace.coverage"),
        "trace.spans": last["trace.spans"],
    }
    return {"check": check, "passes": passes, "values": values,
            "spans_path": spans_path}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def report(run: dict, metrics: dict) -> dict:
    """The result object printed as the last line."""
    check = run["check"]
    return {"correct": check.failed == 0 and check.attempted > 0,
            "attempted": check.attempted, "failed": check.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    compile_bytecode()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]

    if args.trace:
        run = traced_run(args.workload, args.seed, seconds)
        metrics = {m["name"]: {"value": run["values"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print(f"spans of the last traced pass: {run['spans_path']}")
    else:
        run = timed_run(args.workload, args.seed, seconds)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["metrics"].items()}
    check = run["check"]
    passes = run["passes"]
    error_rate = check.failed / check.attempted
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    for name, value in run.get("raw", {}).items():
        print(f"{name:32s} {value:.6g} s")
    print(f"{'error_rate':32s} {error_rate:.6g} ratio "
          f"({check.failed} of {check.attempted} outputs)")
    print(f"{'passes':32s} {len(passes)} "
          f"({sum(p['traced'] for p in passes)} traced)")
    print(json.dumps(report(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
