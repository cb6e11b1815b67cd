"""Prediction-stack benchmarks: one psweep cell pair per workload.

Times the static/predictive head-to-head of :mod:`repro.bench.prediction`
under the dense correlated-wave regime — the cell where the §6 prediction
stack (lifetime placement, online hazard predictor, proactive
re-replication) is supposed to earn its keep — and asserts that it still
does. ``BENCH_prediction.json`` in this directory is the committed sweep
baseline (12 rows: workload x regime x variant); regenerate it after
intentional changes with::

    PYTHONPATH=src python -m repro psweep \
        --out benchmarks/BENCH_prediction.json

and walk through the numbers in docs/PREDICTION.md. The sweep is
deterministic in its seed, so the committed file only changes when the
predictor, placement, or engine code changes meaningfully; CI requires
a serial regeneration to reproduce every row exactly.
"""

from __future__ import annotations

import pytest

from repro.bench.prediction import prediction_sweep, prediction_table

#: The dense regime only: the sparse cells are (by design) neutral and
#: would just double the benchmark wall time.
DENSE = (("dense", 240.0, 0.6),)


@pytest.mark.parametrize("workload", ["mlr", "fanout"])
def test_psweep_cell(benchmark, workload, save_artifact):
    """One static/predictive pair under dense waves: the unit of work the
    psweep CLI repeats per cell."""

    rows = benchmark(lambda: prediction_sweep(workloads=(workload,),
                                              regimes=DENSE))
    static, predictive = rows
    assert static["variant"] == "static"
    assert predictive["variant"] == "predictive"
    assert static["completed"] and predictive["completed"]
    # The committed baseline's headline: under dense correlated waves the
    # prediction stack must cut both recomputation and completion time.
    assert predictive["relaunched"] < static["relaunched"]
    assert predictive["jct_minutes"] < static["jct_minutes"]
    if workload == "fanout":
        # The fan-out pipeline retains local outputs, so the proactive
        # push path must actually fire and convert losses into restores.
        assert predictive["proactive_pushes"] > 0
        assert predictive["recomputes_avoided"] > 0
    save_artifact(f"psweep_{workload}",
                  prediction_table(rows,
                                   title=f"psweep cell: workload={workload} "
                                         f"regime=dense"))


def test_psweep_mr_neutral(save_artifact):
    """MR has no intra-stage fan-out and a single transient class, so the
    prediction stack must be JCT-neutral there — catching accidental
    overhead on workloads it cannot help."""

    rows = prediction_sweep(workloads=("mr",), regimes=DENSE)
    static, predictive = rows
    assert predictive["proactive_pushes"] == 0
    assert abs(predictive["jct_minutes"] - static["jct_minutes"]) \
        <= 0.05 * static["jct_minutes"]
    save_artifact("psweep_mr",
                  prediction_table(rows, title="psweep cell: workload=mr "
                                               "regime=dense"))
