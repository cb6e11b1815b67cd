"""The MLR rows of the prediction sweep equal the committed baseline.

``benchmarks/BENCH_prediction.json`` pins every row of ``python -m repro
psweep`` (static vs predictive Pado under sparse and dense waves). The
MLR half is regenerated here and compared exactly. It runs in a fresh
interpreter: container ids come from a process-wide counter and feed
Pado's many-to-one routing, so a simulation's result depends on what
ran before it in the same process.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
BASELINE = REPO / "benchmarks" / "BENCH_prediction.json"


def test_mlr_rows_equal_the_committed_baseline(tmp_path):
    out = tmp_path / "prediction.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "psweep", "--workers", "0",
         "--pworkloads", "mlr", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    fresh = json.loads(out.read_text())["rows"]
    pinned = [row for row in json.loads(BASELINE.read_text())["rows"]
              if row["workload"] == "mlr"]
    assert len(pinned) == 4
    assert fresh == pinned
