"""Prediction sweep: static vs predictive Pado under correlated waves.

The Figure-5-style experiment for the :mod:`repro.predict` stack. Every
cell runs the same workload on the same cluster under the same schedule
of correlated eviction waves (periodic cluster-wide reclamations, the
regime where container age *predicts* eviction); the ``static`` variant
is the paper's Pado untouched, while the ``predictive`` variant turns on
the whole §6 prediction path — lifetime placement, the online hazard
predictor fed by observed evictions, and proactive re-replication of
at-risk local outputs. ``python -m repro psweep`` drives the sweep;
``benchmarks/BENCH_prediction.json`` pins the resulting rows (see
docs/PREDICTION.md for how to read them).

Periodic waves make the hazard model's job concrete: every container is
launched on a wave tick (the initial fleet at time zero, replacements at
the wave that killed their predecessors), so observed death ages pile up
at multiples of the period and the fitted hazard spikes there. As a
container's age approaches the next multiple, its predicted eviction
probability within the push horizon crosses the threshold and the master
ships its retained outputs to the reserved side before the wave lands.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.runner import RunSpec, SweepRunner
from repro.bench.tables import render_table

#: Engine options of the ``predictive`` variant (PadoRuntimeConfig
#: fields; the ``static`` variant runs with an empty options dict).
PREDICTIVE_OPTIONS: dict = {
    "placement": "lifetime",
    "predictor": "hazard",
    "proactive_push": True,
    "push_threshold": 0.55,
    "push_horizon": 150.0,
    "push_check_interval": 20.0,
}

#: ``(name, wave period seconds, wave severity)`` regimes.
WAVE_REGIMES: tuple = (
    ("sparse", 480.0, 0.5),
    ("dense", 240.0, 0.6),
)

#: Default sweep axes of ``python -m repro psweep``. ``fanout`` is the
#: intra-stage fan-out pipeline (:mod:`repro.workloads.pipeline`) whose
#: retained local outputs give proactive push something to protect; the
#: paper workloads fuse into straight chains and exercise only the
#: placement/scheduling half of the prediction stack.
SWEEP_WORKLOADS = ("mlr", "mr", "fanout")

#: Per-workload scales when the caller does not pin one. The generic
#: ``BENCH_SCALES`` defaults make the jobs finish before the first wave
#: even lands; these keep every cell running across several waves so the
#: variants actually diverge.
PSWEEP_SCALES = {"mlr": 0.1, "mr": 1.5, "fanout": 1.0}

PSWEEP_HEADERS = ["workload", "regime", "variant", "JCT (m)", "completed",
                  "relaunched", "evictions", "pushes", "avoided"]


def wave_schedule(period: float, severity: float,
                  horizon_seconds: float) -> tuple:
    """Periodic correlated waves covering ``horizon_seconds``."""
    count = max(1, int(horizon_seconds // period))
    return tuple((round(period * (i + 1), 6), severity)
                 for i in range(count))


def prediction_specs(workload: str, period: float, severity: float,
                     scale: Optional[float] = None, seed: int = 11,
                     time_limit_minutes: float = 150.0,
                     num_reserved: int = 5,
                     num_transient: int = 40) -> dict[str, RunSpec]:
    """The ``static``/``predictive`` spec pair of one sweep cell."""
    if scale is None:
        scale = PSWEEP_SCALES.get(workload)
    waves = wave_schedule(period, severity, time_limit_minutes * 60.0)
    common = dict(scale=scale, seed=seed,
                  time_limit_minutes=time_limit_minutes,
                  num_reserved=num_reserved, num_transient=num_transient,
                  eviction="none", eviction_waves=waves)
    return {
        "static": RunSpec.make(workload, "pado", **common),
        "predictive": RunSpec.make(workload, "pado",
                                   engine_options=dict(PREDICTIVE_OPTIONS),
                                   **common),
    }


def prediction_sweep(workloads: Sequence[str] = SWEEP_WORKLOADS,
                     regimes: Sequence[tuple] = WAVE_REGIMES,
                     scale: Optional[float] = None, seed: int = 11,
                     time_limit_minutes: float = 150.0,
                     runner: Optional[SweepRunner] = None,
                     workers: int = 0, cache=None) -> list[dict]:
    """Run every (workload, regime, variant) cell; one dict per cell.

    Rows interleave ``static``/``predictive`` per cell so the committed
    JSON reads as head-to-head pairs; ``relaunched`` (the recomputation
    the paper's bottom panels plot) and ``jct_minutes`` are the two
    quantities the predictive variant is expected to reduce.
    """
    if runner is None:
        with SweepRunner(workers=workers, cache_dir=cache) as local:
            return prediction_sweep(workloads, regimes, scale=scale,
                                    seed=seed,
                                    time_limit_minutes=time_limit_minutes,
                                    runner=local)
    cells = []
    specs = []
    for workload in workloads:
        for name, period, severity in regimes:
            pair = prediction_specs(workload, period, severity, scale=scale,
                                    seed=seed,
                                    time_limit_minutes=time_limit_minutes)
            for variant, spec in pair.items():
                cells.append((workload, name, variant))
                specs.append(spec)
    results = runner.run(specs)
    rows = []
    for (workload, regime, variant), result in zip(cells, results):
        extras = result.extras
        rows.append({
            "workload": workload,
            "regime": regime,
            "variant": variant,
            "seed": seed,
            "jct_minutes": round(result.jct_minutes, 3),
            "completed": result.completed,
            "relaunched": result.relaunched_tasks,
            "evictions": result.evictions,
            "bytes_pushed_gb": round(result.bytes_pushed / 1e9, 3),
            "proactive_pushes": extras.get("proactive_pushes", 0),
            "recomputes_avoided": extras.get("recomputes_avoided", 0),
            "predicted_evictions": extras.get("predicted_evictions", 0),
        })
    return rows


def prediction_table(rows: Sequence[dict],
                     title: Optional[str] = None) -> str:
    """Render sweep rows as the CLI table."""
    cells = [[row["workload"], row["regime"], row["variant"],
              row["jct_minutes"], row["completed"], row["relaunched"],
              row["evictions"], row["proactive_pushes"],
              row["recomputes_avoided"]] for row in rows]
    return render_table(PSWEEP_HEADERS, cells, title=title)
