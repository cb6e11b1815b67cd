"""One pass of a workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass starts from
the same process state: a simulation's result may depend on what ran
before it in its process (see "Known defect" in ``README.md``), and a
fresh interpreter per pass makes every pass of a run, and the pinned
digests, comparable. Usage::

    python3 perfbench/one_pass.py --workload tenant-cell --seed 0 --trace 0

with ``src/`` on ``PYTHONPATH``. The last line of standard output is one
JSON object:

- ``ready``: ``time.perf_counter()`` when the pass could begin. It reads
  the system-wide monotonic clock, so the parent subtracts the instant
  it started this interpreter and gets the set-up time;
- ``cells``: per cell, its wall and CPU seconds and the instants it
  began and ended;
- ``outputs`` and ``digests``: per cell, how many outputs it has and
  their digests (``null`` for a cell that raised);
- ``peak_rss_mb``;
- ``ledger`` with ``--trace 1``: the per-layer numbers of the pass
  (``spans.SpanRecorder``); ``--spans PATH`` also writes its spans.

With ``--import-only`` it stops after the imports (the traced run starts
it under ``python -X importtime``).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time


def run_pass(workload) -> tuple[list, list]:
    """Run every cell once: ``(cell times, cell digests)``. A cell's
    times are its wall and CPU seconds and the ``perf_counter`` instants
    it began and ended, at which ``run.py`` normalises them."""
    cells, digests = [], []
    for index in range(len(workload.cells)):
        cpu = time.process_time()
        began = time.perf_counter()
        try:
            got = workload.run_cell(index)
        except Exception as error:    # counted as failed outputs
            print(f"perfbench: cell {index} failed: {error!r}",
                  file=sys.stderr)
            got = None
        ended = time.perf_counter()
        cells.append({"wall": ended - began,
                      "cpu": time.process_time() - cpu,
                      "began": began, "ended": ended})
        digests.append(got)
    return cells, digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    import workloads
    if args.import_only:
        return
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.start()
    ready = time.perf_counter()
    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder()
    try:
        gc.collect()
        if recorder is not None:
            recorder.install()
        try:
            cells, digests = run_pass(workload)
        finally:
            if recorder is not None:
                recorder.uninstall()
        outputs = [workload.cell_outputs(index)
                   for index in range(len(workload.cells))]
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"ready": ready, "cells": cells, "outputs": outputs,
              "digests": digests, "peak_rss_mb": peak_rss_mb}
    if recorder is not None:
        result["ledger"] = recorder.ledger(sum(c["wall"] for c in cells))
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
