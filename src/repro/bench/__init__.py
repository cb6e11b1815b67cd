"""Benchmark harness: regenerates every table and figure of the paper's
evaluation (plus ablations) on the simulated cluster."""

from repro.bench.experiments import (BENCH_SCALES, TIME_LIMIT_MINUTES,
                                     AveragedRow, SweepRow,
                                     averaged_eviction_sweep, ablation_aggregation_limits,
                                     ablation_fetch_semantics,
                                     ablation_lifetime_aware_scheduling,
                                     ablation_optimizations,
                                     default_engines, eviction_rate_sweep,
                                     fig1_lifetime_cdfs, fig2_recovery_costs,
                                     fig5_als, fig6_mlr, fig7_mr,
                                     fig8_reserved_sweep, fig9_scalability,
                                     fig9xl_stress, Fig9XLStats,
                                     make_workload, run_one,
                                     tab1_lifetime_percentiles,
                                     tab2_collected_memory)
from repro.bench.multitenant import (cell_summary, jct_table,
                                     make_cell_config, multitenant_sweep,
                                     run_multitenant_cell, spec_for_job,
                                     sweep_executor)
from repro.bench.runner import (PoolSpec, ResultCache, RunSpec, RunnerStats,
                                SweepRunner, build_cache, build_cluster,
                                build_engine, canonical_result_json,
                                code_fingerprint, engine_spec, execute_spec,
                                result_from_dict, result_to_dict, run_specs,
                                spec_to_dict)
from repro.bench.tables import render_cdf_series, render_table, speedup

__all__ = [
    "AveragedRow", "BENCH_SCALES", "PoolSpec",
    "ResultCache", "RunSpec",
    "RunnerStats", "SweepRow", "SweepRunner", "TIME_LIMIT_MINUTES",
    "averaged_eviction_sweep",
    "ablation_aggregation_limits", "ablation_fetch_semantics",
    "ablation_lifetime_aware_scheduling",
    "ablation_optimizations", "build_cache", "build_cluster",
    "build_engine",
    "canonical_result_json", "cell_summary", "code_fingerprint",
    "default_engines",
    "engine_spec", "eviction_rate_sweep", "execute_spec",
    "Fig9XLStats",
    "fig1_lifetime_cdfs", "fig2_recovery_costs", "fig5_als", "fig6_mlr",
    "fig7_mr", "fig8_reserved_sweep", "fig9_scalability", "fig9xl_stress",
    "jct_table",
    "make_cell_config", "make_workload", "multitenant_sweep",
    "render_cdf_series", "render_table", "result_from_dict",
    "result_to_dict", "run_multitenant_cell", "run_one", "run_specs",
    "spec_for_job", "spec_to_dict", "speedup",
    "sweep_executor",
    "tab1_lifetime_percentiles", "tab2_collected_memory",
]
