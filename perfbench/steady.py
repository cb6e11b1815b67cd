"""Steadiness check: is one workload steady enough for its bounds?

Runs ``run.py`` ``--runs`` times on one workload, each run with the next
seed, and splits the runs into two interleaved sets (odd and even runs).
For every end-to-end metric it prints the spread of all runs (distance
between the first and third quartile as a share of the median), the
spread of each set, and how far set B's median lies from set A's, each
against the metric's bound in ``BENCHMARK.json``::

    python3 perfbench/steady.py --workload tenant-cell --runs 10

A spread should stay below a third of the bound (``setup_s`` is exempt
from the spread rule) and the shift between the sets within the bound.
The exit code is 1 if any run reported failed outputs or a rule is
broken.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

from host import spread
from run import HERE, ROOT, WORKLOAD_NAMES, load_spec

_SUMMARY = re.compile(r"^(\S+)\s+(-?[\d.]+(?:e[-+]?\d+)?)\s")


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result JSON and the summary lines of one ``run.py`` run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    summary = {}
    for line in lines[:-1]:
        match = _SUMMARY.match(line)
        if match:
            summary[match.group(1)] = float(match.group(2))
    return json.loads(lines[-1]), summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds)")
    args = parser.parse_args()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    raw: dict[str, list[float]] = {}
    failures = 0
    for index in range(args.runs):
        seed = args.first_seed + index
        began = time.perf_counter()
        result, summary = one_run(args.workload, seed, seconds)
        took = time.perf_counter() - began
        failures += result["failed"]
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        for name, value in summary.items():
            if name.endswith("_raw_s") or name == "host_ref_s":
                raw.setdefault(name, []).append(value)
        shown = "  ".join(f"{name}={values[name][-1]:.4g}"
                          for name in bounds)
        print(f"run {index} seed {seed}: {shown}  "
              f"failed={result['failed']}/{result['attempted']}  "
              f"host_ref_s={raw['host_ref_s'][-1]:.4g}  took {took:.1f} s",
              flush=True)

    broken = failures > 0
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':14s} {'median':>10s} {'spread':>8s} {'set A':>8s} "
          f"{'set B':>8s} {'B vs A':>8s} {'bound':>6s}  verdict")
    for name, bound in bounds.items():
        all_runs, set_a, set_b = (values[name], values[name][0::2],
                                  values[name][1::2])
        shift = statistics.median(set_b) / statistics.median(set_a) - 1.0
        total = spread(all_runs)
        notes = []
        if name != "setup_s" and total > bound:
            notes.append("spread over bound")
        elif name != "setup_s" and total > bound / 3:
            notes.append("spread over a third of bound")
        if abs(shift) > bound:
            notes.append("shift over bound")
        broken |= any("over bound" in note for note in notes)
        print(f"{name:14s} {statistics.median(all_runs):10.4g} "
              f"{total:8.3f} {spread(set_a):8.3f} {spread(set_b):8.3f} "
              f"{shift:+8.3f} {bound:6.2f}  {', '.join(notes) or 'ok'}")
    # The same times before normalisation by the reference loop, to show
    # what the normalisation buys.
    for name, series in raw.items():
        shift = statistics.median(series[1::2]) / \
            statistics.median(series[0::2]) - 1.0
        print(f"{name:14s} {statistics.median(series):10.4g} "
              f"{spread(series):8.3f} {spread(series[0::2]):8.3f} "
              f"{spread(series[1::2]):8.3f} {shift:+8.3f}")
    if failures:
        print(f"{failures} failed outputs across the runs")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
