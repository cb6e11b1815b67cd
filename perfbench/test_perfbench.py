"""Tests of the benchmark itself (about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, load_spec, report, timed_run


def last_line(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tenant-cell",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = last_line(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in load_spec()[kind]}
        got = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
        assert got == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_corrupted_digest_counts_in_error_rate():
    with open(HERE / "digests.json") as handle:
        pinned = json.load(handle)["workloads"]["tenant-cell"]
    corrupted = [["0" * 64] + pinned[0][1:]] + pinned[1:]
    run = timed_run("tenant-cell", 0, 0.0, pinned=corrupted)
    result = report(run, {})
    passes = len(run["passes"])
    assert passes >= 3
    # The corrupted digest is the first cell's first job, once per pass.
    assert result["failed"] == passes
    assert result["attempted"] == passes * sum(map(len, pinned))
    assert not result["correct"]
