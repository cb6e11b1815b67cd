"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro fig5 [--scale 0.25] [--seed 11]
    python -m repro fig2 --trace traces/
    python -m repro sweep --workload mr --averaged --workers 4 --cache .cache
    python -m repro mtsweep --policy fair --load 0.8 [--eviction high]
    python -m repro mtsweep --reserve fixed,elastic --load 0.8,1.1
    python -m repro mtsweep --workers 2 --out cells.json
    python -m repro psweep [--pworkloads fanout] [--out BENCH.json]
    python -m repro fig9xl [--fleet 10000] [--hours 1.75]
    python -m repro profile fig7 [--profile-limit 40] [--profile-out f.pstats]
    python -m repro profile mtsweep --policy fair --load 0.8 --jobs 20
    python -m repro all

Each experiment prints the same rows the paper reports; see EXPERIMENTS.md
for the paper-vs-measured comparison. With ``--trace DIR`` every simulated
job additionally records a structured event trace (see docs/OBSERVABILITY.md)
and dumps one ``<label>.jsonl`` plus one Chrome/Perfetto-loadable
``<label>.trace.json`` per run into DIR.

Every sweep-style experiment (fig5-9, ablations, sweep, mtsweep, psweep)
accepts ``--workers N`` to run independent simulations on one pool of
``min(N, cores)`` worker processes (0, the default, runs serially) and
``--cache DIR`` to memoize completed runs on disk (see
docs/PERFORMANCE.md). A wall-clock timing summary for every
runner-backed experiment goes to stderr.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable

from repro.obs.tracer import collecting

from repro.bench import (SweepRunner, ablation_aggregation_limits,
                         ablation_fetch_semantics, ablation_optimizations,
                         averaged_eviction_sweep, eviction_rate_sweep,
                         fig1_lifetime_cdfs, fig2_recovery_costs, fig5_als,
                         fig6_mlr, fig7_mr, fig8_reserved_sweep,
                         fig9_scalability, fig9xl_stress, render_cdf_series,
                         render_table, tab1_lifetime_percentiles,
                         tab2_collected_memory)
from repro.trace import EvictionRate

SWEEP_HEADERS = ["workload", "eviction", "engine", "JCT (m)", "completed",
                 "relaunched", "evictions"]
AVERAGED_HEADERS = ["workload", "eviction", "engine", "JCT (m)",
                    "completed"]


def _runner_for(args) -> SweepRunner:
    return SweepRunner(workers=args.workers, cache_dir=args.cache)


def _finish_runner(runner: SweepRunner) -> None:
    """Release the warm pool and report wall-clock timing on stderr
    (stdout carries the tables; the ``[runner]`` stats line stays there
    for compatibility)."""
    stats = runner.stats
    print(f"[runner:timing] {stats.wall_seconds:.2f}s wall, "
          f"{stats.mean_spec_seconds * 1e3:.1f} ms/spec, "
          f"{stats.pool_startup_seconds:.2f}s pool startup "
          f"({stats.pools_started} pool(s), {stats.batches} batch(es), "
          f"{stats.chunks} chunk(s), {stats.cache_corrupt} corrupt cache "
          f"entries)", file=sys.stderr)
    runner.close()


def _sweep(fn: Callable, title: str, args, **kwargs) -> str:
    runner = _runner_for(args)
    try:
        rows = fn(runner=runner, **kwargs)
    finally:
        _finish_runner(runner)
    table = render_table(SWEEP_HEADERS, [r.as_tuple() for r in rows],
                         title=title)
    return f"{table}\n[runner] {runner.stats}"


def _run_fig1(args) -> str:
    return render_cdf_series(fig1_lifetime_cdfs(seed=args.seed),
                             title="Figure 1: lifetime CDFs")


def _run_tab1(args) -> str:
    return render_table(["margin", "percentile", "measured (min)",
                         "paper (min)"],
                        tab1_lifetime_percentiles(seed=args.seed),
                        title="Table 1: lifetime percentiles")


def _run_tab2(args) -> str:
    return render_table(["margin", "measured", "paper"],
                        tab2_collected_memory(seed=args.seed),
                        title="Table 2: collected idle memory")


def _run_fig2(args) -> str:
    return render_table(
        ["engine", "relaunched", "checkpointed (MB)", "JCT (m)",
         "baseline JCT (m)"], fig2_recovery_costs(seed=args.seed),
        title="Figure 2: recovery costs")


def _run_fig8(args) -> str:
    parts = []
    for workload in ("als", "mlr", "mr"):
        parts.append(_sweep(fig8_reserved_sweep,
                            f"Figure 8({workload}): reserved sweep", args,
                            workload=workload, scale=args.scale,
                            seed=args.seed))
    return "\n\n".join(parts)


def _run_ablations(args) -> str:
    runner = _runner_for(args)
    try:
        parts = [
            render_table(["variant", "JCT (m)", "pushed (GB)",
                          "input read (GB)", "shuffled (GB)"],
                         ablation_optimizations(seed=args.seed,
                                                runner=runner),
                         title="Ablation: Pado optimizations (MLR, high)"),
            render_table(["max merged tasks", "JCT (m)", "pushed (GB)",
                          "relaunched"],
                         ablation_aggregation_limits(seed=args.seed,
                                                     runner=runner),
                         title="Ablation: aggregation escape limits"),
            render_table(["semantics", "JCT (m)", "relaunched",
                          "shuffled (GB)"],
                         ablation_fetch_semantics(seed=args.seed,
                                                  runner=runner),
                         title="Ablation: Spark fetch-failure semantics"),
            f"[runner] {runner.stats}",
        ]
    finally:
        _finish_runner(runner)
    return "\n\n".join(parts)


def _parse_csv(text, convert=str) -> list:
    return [convert(item.strip()) for item in text.split(",") if item.strip()]


def _run_mtsweep(args) -> str:
    """Multi-tenant cluster: inter-job policies under continuous arrivals
    (see docs/MULTITENANCY.md)."""
    import json

    from repro.bench.multitenant import (SWEEP_POLICIES, cell_summary,
                                         jct_table, make_cell_config,
                                         run_multitenant_cell)
    runner = _runner_for(args)
    policies = SWEEP_POLICIES if args.policy == "all" else (args.policy,)
    loads = _parse_csv(args.load, float)
    evictions = _parse_csv(args.eviction)
    reserves = _parse_csv(args.reserve)
    parts = []
    summaries = []
    try:
        for load in loads:
            for eviction in evictions:
                for policy in policies:
                    for reserve in reserves:
                        config = make_cell_config(policy, load, eviction,
                                                  num_jobs=args.jobs,
                                                  seed=args.seed,
                                                  reserve=reserve)
                        result = run_multitenant_cell(config,
                                                      runner=runner)
                        summaries.append(cell_summary(config, result))
                        parts.append(jct_table(
                            result,
                            title=(f"Multi-tenant JCT (minutes): "
                                   f"policy={policy} load={load} "
                                   f"eviction={eviction} reserve={reserve} "
                                   f"jobs={args.jobs} seed={args.seed}")))
    finally:
        _finish_runner(runner)
    if args.out is not None:
        out = pathlib.Path(args.out)
        payload = {"cells": summaries, "runner": runner.stats.to_dict()}
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        parts.append(f"[mtsweep] {len(summaries)} cell summaries -> {out}")
    parts.append(f"[runner] {runner.stats}")
    return "\n\n".join(parts)


def _run_psweep(args) -> str:
    """Prediction sweep: static vs predictive Pado under correlated
    eviction waves (see docs/PREDICTION.md)."""
    import json

    from repro.bench.prediction import (SWEEP_WORKLOADS, prediction_sweep,
                                        prediction_table)
    runner = _runner_for(args)
    workloads = (_parse_csv(args.pworkloads) if args.pworkloads
                 else SWEEP_WORKLOADS)
    try:
        rows = prediction_sweep(workloads=workloads, scale=args.scale,
                                seed=args.seed, runner=runner)
    finally:
        _finish_runner(runner)
    parts = [prediction_table(
        rows, title=(f"Prediction sweep: static vs predictive Pado "
                     f"(seed={args.seed})"))]
    if args.out is not None:
        out = pathlib.Path(args.out)
        payload = {"rows": rows, "runner": runner.stats.to_dict()}
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        parts.append(f"[psweep] {len(rows)} cell rows -> {out}")
    parts.append(f"[runner] {runner.stats}")
    return "\n\n".join(parts)


def _run_fig9xl(args) -> str:
    """fig9 at 100× the paper's cluster: a 10k-container fleet churning
    under the high eviction rate with a continuous synthetic shuffle
    (>1M simulator events at the default shape)."""
    import time

    fleet = args.fleet
    num_transient = round(fleet * 8 / 9)   # the paper's fixed 8:1 ratio
    num_reserved = fleet - num_transient
    start = time.perf_counter()
    stats = fig9xl_stress(num_reserved=num_reserved,
                          num_transient=num_transient,
                          sim_hours=args.hours, seed=args.seed)
    wall = time.perf_counter() - start
    table = render_table(
        ["containers", "simulated", "events", "evictions", "transfers",
         "completed", "failed"], [stats.as_tuple()],
        title="fig9xl: array-core stress at 100x the paper's cluster")
    rate = stats.events / wall if wall else float("inf")
    return (f"{table}\n[fig9xl] wall {wall:.2f}s, "
            f"{rate:,.0f} events/s")


def _run_sweep(args) -> str:
    """The generic runner-backed sweep: engines x rates (x seeds)."""
    import dataclasses
    import json

    runner = _runner_for(args)
    kwargs = {"scale": args.scale, "runner": runner}
    if args.rates:
        kwargs["rates"] = tuple(EvictionRate(rate)
                                for rate in _parse_csv(args.rates))
    if args.engines:
        kwargs["engines"] = _parse_csv(args.engines)
    seeds = _parse_csv(args.seeds, int) if args.seeds else None
    try:
        if args.averaged:
            if seeds:
                kwargs["seeds"] = tuple(seeds)
            rows = averaged_eviction_sweep(args.workload, **kwargs)
            table = render_table(
                AVERAGED_HEADERS, [row.as_tuple() for row in rows],
                title=f"Averaged eviction sweep ({args.workload})")
        else:
            kwargs["seed"] = seeds[0] if seeds else args.seed
            rows = eviction_rate_sweep(args.workload, **kwargs)
            table = render_table(
                SWEEP_HEADERS, [row.as_tuple() for row in rows],
                title=f"Eviction sweep ({args.workload})")
    finally:
        _finish_runner(runner)
    output = f"{table}\n[runner] {runner.stats}"
    if args.out is not None:
        out = pathlib.Path(args.out)
        payload = {"rows": [dataclasses.asdict(row) for row in rows],
                   "runner": runner.stats.to_dict()}
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        output += f"\n[sweep] {len(rows)} rows -> {out}"
    return output


EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig1": ("Figure 1: lifetime CDFs per safety margin", _run_fig1),
    "tab1": ("Table 1: lifetime percentiles", _run_tab1),
    "tab2": ("Table 2: collected idle memory", _run_tab2),
    "fig2": ("Figure 2: recovery cost of an eviction burst", _run_fig2),
    "fig5": ("Figure 5: ALS vs eviction rate",
             lambda args: _sweep(fig5_als, "Figure 5: ALS", args,
                                 scale=args.scale, seed=args.seed)),
    "fig6": ("Figure 6: MLR vs eviction rate",
             lambda args: _sweep(fig6_mlr, "Figure 6: MLR", args,
                                 scale=args.scale, seed=args.seed)),
    "fig7": ("Figure 7: MR vs eviction rate",
             lambda args: _sweep(fig7_mr, "Figure 7: MR", args,
                                 scale=args.scale, seed=args.seed)),
    "fig8": ("Figure 8: reserved-container sweep", _run_fig8),
    "fig9": ("Figure 9: scalability at 8:1",
             lambda args: _sweep(fig9_scalability, "Figure 9", args,
                                 scale=args.scale, seed=args.seed)),
    "ablations": ("Ablations of §3.2.7 design choices", _run_ablations),
    "sweep": ("Custom eviction sweep (--workload/--rates/--engines/"
              "--seeds/--averaged)", _run_sweep),
    "mtsweep": ("Multi-tenant cluster: JCT distributions per inter-job "
                "policy (--policy/--load/--eviction/--jobs/--reserve)",
                _run_mtsweep),
    "psweep": ("Prediction sweep: static vs predictive Pado under "
               "correlated waves (--pworkloads/--out)", _run_psweep),
    "fig9xl": ("Array-core stress: 10k containers, >1M events "
               "(--fleet/--hours)", _run_fig9xl),
}


def _run_profiled(name: str, args) -> int:
    """cProfile one experiment and print the hottest functions.

    The engine hot path (simulator loop, network drain, fetch barrier) is
    pure Python, so cumulative-time profiles point straight at regressions;
    see docs/PERFORMANCE.md for the workflow.
    """
    import cProfile
    import pstats

    if args.workers:
        # Worker subprocesses would run the simulations outside the
        # profiler and the profile would show only IPC overhead.
        print(f"[profile] forcing --workers 0 (was {args.workers}): "
              f"profiled runs must stay in-process")
        args.workers = 0
    _, runner = EXPERIMENTS[name]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        output = runner(args)
    finally:
        profiler.disable()
    print(output)
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.profile_sort)
    stats.print_stats(args.profile_limit)
    if args.profile_out is not None:
        stats.dump_stats(args.profile_out)
        print(f"[profile] stats written to {args.profile_out} "
              f"(inspect with python -m pstats)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser (``scripts/check_docs.py`` parses every
    documented ``python -m repro`` command line with it)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Pado paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["list", "all",
                                                       "profile"],
                        help="experiment id, 'list', 'all', or 'profile'")
    parser.add_argument("target", nargs="?", default=None,
                        help="with 'profile': the experiment to profile "
                             "under cProfile")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale override (default: bench "
                             "scales)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="record per-run event traces and write "
                             "JSONL + Chrome trace files into DIR")
    parser.add_argument("--workers", type=int, default=0,
                        help="run independent simulations on a pool of "
                             "min(N, cores) worker processes (0 = serial)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="memoize completed simulations in DIR; "
                             "re-runs only simulate what changed")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="for sweep/mtsweep/psweep: also write rows "
                             "plus runner timing as JSON to FILE (how the "
                             "committed benchmarks/BENCH_*.json sweeps are "
                             "regenerated)")
    sweep_args = parser.add_argument_group(
        "sweep", "options for the 'sweep' experiment")
    sweep_args.add_argument("--workload", default="mr",
                            choices=("als", "mlr", "mr", "fanout"))
    sweep_args.add_argument("--rates", default=None,
                            help="comma-separated eviction rates "
                                 "(none,low,medium,high)")
    sweep_args.add_argument("--engines", default=None,
                            help="comma-separated engine names "
                                 "(pado,spark,spark-checkpoint)")
    sweep_args.add_argument("--seeds", default=None,
                            help="comma-separated seeds (with --averaged: "
                                 "the repetition protocol seeds)")
    sweep_args.add_argument("--averaged", action="store_true",
                            help="run the §5.1.3 repetition protocol and "
                                 "report mean ± std")
    mt_args = parser.add_argument_group(
        "mtsweep", "options for the 'mtsweep' experiment")
    mt_args.add_argument("--policy", default="all",
                         choices=("fifo", "fair", "quota", "all"),
                         help="inter-job scheduling policy (default: run "
                              "all three)")
    mt_args.add_argument("--load", default="0.8",
                         help="offered-load factor(s), comma-separated: "
                              "nominal transient demand over transient "
                              "capacity")
    mt_args.add_argument("--eviction", default="high",
                         help="correlated eviction-wave regime(s), "
                              "comma-separated (none,low,medium,high)")
    mt_args.add_argument("--jobs", type=int, default=60,
                         help="number of arriving jobs per cell")
    mt_args.add_argument("--reserve", default="fixed",
                         help="reserved-pool sizing mode(s), "
                              "comma-separated (fixed,elastic)")
    p_args = parser.add_argument_group(
        "psweep", "options for the 'psweep' experiment")
    p_args.add_argument("--pworkloads", default=None,
                        help="comma-separated psweep workloads "
                             "(default: mlr,mr,fanout)")
    xl_args = parser.add_argument_group(
        "fig9xl", "options for the 'fig9xl' experiment")
    xl_args.add_argument("--fleet", type=int, default=10_000,
                         help="total containers, split 8:1 "
                              "transient:reserved (default: 10000)")
    xl_args.add_argument("--hours", type=float, default=1.75,
                         help="simulated hours of churn + shuffle "
                              "(default: 1.75, >1M events)")
    profile_args = parser.add_argument_group(
        "profile", "options for the 'profile' mode")
    profile_args.add_argument("--profile-sort", default="cumulative",
                              help="pstats sort key (default: cumulative)")
    profile_args.add_argument("--profile-limit", type=int, default=30,
                              help="number of stat lines to print")
    profile_args.add_argument("--profile-out", metavar="FILE", default=None,
                              help="also dump raw pstats data to FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "profile":
        if args.target not in EXPERIMENTS:
            parser.error("profile needs an experiment to profile, one of: "
                         + ", ".join(sorted(EXPERIMENTS)))
        return _run_profiled(args.target, args)
    if args.target is not None:
        parser.error("a second positional is only valid with 'profile'")
    if args.experiment == "list":
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            print(f"{name:10s} {description}")
        return 0
    if args.experiment == "all":
        # 'sweep'/'mtsweep'/'psweep' are parameterized and 'fig9xl' is a
        # stress cell, not paper artifacts; 'all' regenerates the paper
        # set only.
        targets = sorted(name for name in EXPERIMENTS
                         if name not in ("sweep", "mtsweep", "psweep",
                                         "fig9xl"))
    else:
        targets = [args.experiment]
    for name in targets:
        _, runner = EXPERIMENTS[name]
        if args.trace is None:
            print(runner(args))
        else:
            with collecting() as collector:
                print(runner(args))
            trace_dir = pathlib.Path(args.trace) / name
            written = collector.dump(trace_dir)
            print(f"[trace] {len(collector.runs)} run(s) -> "
                  f"{len(written)} file(s) under {trace_dir}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
