"""Tests for the parallel cached experiment runner (repro.bench.runner)."""

import dataclasses
import json

import pytest

from repro.bench.experiments import averaged_eviction_sweep
from repro.bench.runner import (PoolSpec, ResultCache, RunSpec, SweepRunner,
                                build_cluster, build_engine,
                                canonical_result_json, code_fingerprint,
                                engine_spec, execute_spec, result_from_dict,
                                result_to_dict, run_specs)
from repro.core.runtime.engine import PadoEngine
from repro.core.runtime.master import PadoRuntimeConfig
from repro.core.runtime.scheduler import LifetimeAwarePolicy
from repro.engines.base import JobResult
from repro.engines.spark import SparkEngine
from repro.engines.spark_checkpoint import SparkCheckpointEngine
from repro.trace import EvictionRate

TINY = dict(scale=0.02, seed=3, eviction="high")


def tiny_spec(engine="pado", **overrides):
    fields = dict(TINY)
    fields.update(overrides)
    return RunSpec(workload="mr", engine=engine, **fields)


# ----------------------------------------------------------------------
# RunSpec: hashing and declarative construction


def test_content_hash_is_stable_and_sensitive():
    assert tiny_spec().content_hash() == tiny_spec().content_hash()
    assert tiny_spec().content_hash() != tiny_spec(seed=4).content_hash()
    assert tiny_spec().content_hash() != tiny_spec(
        engine="spark").content_hash()
    assert tiny_spec().content_hash() != tiny_spec(
        eviction="none").content_hash()


def test_make_normalizes_option_order():
    a = RunSpec.make("mr", "pado",
                     engine_options={"enable_caching": False,
                                     "aggregation_max_tasks": 4})
    b = RunSpec.make("mr", "pado",
                     engine_options={"aggregation_max_tasks": 4,
                                     "enable_caching": False})
    assert a == b
    assert a.content_hash() == b.content_hash()


def test_make_rejects_non_scalar_options():
    with pytest.raises(TypeError):
        RunSpec.make("mr", "pado", engine_options={"policy": object()})


def test_specs_are_picklable_and_hashable():
    import pickle
    spec = RunSpec.make("mlr", "pado",
                        engine_options={"enable_caching": False},
                        transient_pools=[PoolSpec("short", 4, 90.0)])
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert len({spec, spec}) == 1


# ----------------------------------------------------------------------
# engine/cluster reconstruction


def test_engine_spec_round_trips_configured_engines():
    engines = [
        PadoEngine(),
        PadoEngine(PadoRuntimeConfig(enable_caching=False,
                                     aggregation_max_tasks=8)),
        PadoEngine(PadoRuntimeConfig(
            scheduling_policy=LifetimeAwarePolicy())),
        SparkEngine(abort_on_fetch_failure=False),
        SparkCheckpointEngine(store_bandwidth_factor=0.5),
    ]
    for engine in engines:
        name, options = engine_spec(engine)
        rebuilt = build_engine(RunSpec.make("mr", name,
                                            engine_options=dict(options)))
        assert type(rebuilt) is type(engine)
        assert engine_spec(rebuilt) == (name, options)


def test_build_engine_rejects_unknown_names():
    with pytest.raises(ValueError):
        build_engine(tiny_spec(engine="flink"))
    with pytest.raises(ValueError):
        build_engine(RunSpec.make(
            "mr", "pado", engine_options={"scheduling_policy": "fifo"}))


def test_build_cluster_with_pools():
    spec = RunSpec.make("mlr", "pado",
                        transient_pools=[PoolSpec("short", 3, 90.0),
                                         PoolSpec("long", 5, 3600.0)])
    cluster = build_cluster(spec)
    assert cluster.effective_num_transient == 8
    assert cluster.transient_pools[0].name == "short"
    assert cluster.transient_pools[1].expected_lifetime == 3600.0


def test_build_cluster_eviction_rate():
    cluster = build_cluster(tiny_spec())
    assert cluster.eviction is EvictionRate.HIGH
    assert cluster.num_reserved == 5
    assert cluster.num_transient == 40


# ----------------------------------------------------------------------
# JobResult JSON round-trip


def test_result_round_trip_preserves_int_partition_keys():
    result = JobResult(engine="pado", workload="mr", completed=True,
                       jct_seconds=12.5, original_tasks=4,
                       launched_tasks=6, evictions=1,
                       outputs={"sink": {0: [1, 2], 3: [4]}},
                       extras={"note": "x"})
    data = json.loads(json.dumps(result_to_dict(result)))
    rebuilt = result_from_dict(data)
    assert rebuilt == result
    assert list(rebuilt.outputs["sink"]) == [0, 3]


def test_execute_spec_matches_direct_run():
    spec = tiny_spec()
    direct = execute_spec(spec)
    again = execute_spec(spec)
    assert canonical_result_json(direct) == canonical_result_json(again)
    assert direct.engine == "pado"


# ----------------------------------------------------------------------
# the runner: order, dedup, parallelism, caching


def test_results_come_back_in_spec_order():
    specs = [tiny_spec(seed=5), tiny_spec(seed=3), tiny_spec(seed=5)]
    runner = SweepRunner()
    results = runner.run(specs)
    assert [execute_spec(s).jct_seconds for s in specs] == \
        [r.jct_seconds for r in results]
    # identical specs are simulated once and share the result
    assert runner.stats.simulated == 2
    assert runner.stats.deduplicated == 1
    assert results[0] is results[2]


def test_parallel_and_serial_results_are_bit_identical():
    # The §5.1.3 repetition protocol through the runner: every JobResult
    # row must be byte-identical after JSON round-trip, serial vs workers=4.
    specs = [RunSpec(workload="mr", engine=engine, scale=0.1, seed=seed,
                     eviction=rate)
             for rate in ("none", "high")
             for engine in ("pado", "spark-checkpoint")
             for seed in (11, 12)]
    serial = run_specs(specs, workers=0)
    parallel = run_specs(specs, workers=4)
    assert [canonical_result_json(r) for r in serial] == \
        [canonical_result_json(r) for r in parallel]


def test_averaged_sweep_identical_serial_and_parallel():
    kwargs = dict(scale=0.1, seeds=(11, 12), rates=(EvictionRate.HIGH,),
                  engines=["pado", "spark-checkpoint"])
    serial = averaged_eviction_sweep("mr", **kwargs)
    parallel = averaged_eviction_sweep("mr", workers=4, **kwargs)
    assert serial == parallel
    assert [row.as_tuple() for row in serial] == \
        [row.as_tuple() for row in parallel]


def test_warm_cache_performs_zero_simulations(tmp_path):
    specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
    cold = SweepRunner(cache_dir=tmp_path)
    first = cold.run(specs)
    assert cold.stats.simulated == 2
    assert cold.stats.cache_hits == 0

    warm = SweepRunner(cache_dir=tmp_path)
    second = warm.run(specs)
    assert warm.stats.simulated == 0
    assert warm.stats.cache_hits == 2
    assert [canonical_result_json(r) for r in first] == \
        [canonical_result_json(r) for r in second]


def test_cache_is_keyed_by_code_fingerprint(tmp_path):
    spec = tiny_spec()
    cache = ResultCache(tmp_path)
    result = execute_spec(spec)
    assert cache.put(spec, result)
    assert cache.path_for(spec).parent.name == code_fingerprint()
    assert cache.get(spec) == result
    # a different fingerprint directory would miss
    other = tmp_path / ("0" * 16) / cache.path_for(spec).name
    assert not other.exists()


def test_code_fingerprint_is_memoized_per_process(tmp_path, monkeypatch):
    """The tree digest is hashed once per process, not once per runner or
    cache construction — repeated calls must not touch the filesystem."""
    from repro.bench import runner as runner_module

    first = code_fingerprint()
    assert runner_module._FINGERPRINT == first

    def no_reads(*args, **kwargs):
        raise AssertionError("fingerprint re-hashed the source tree")

    monkeypatch.setattr(runner_module.pathlib.Path, "read_bytes", no_reads)
    assert code_fingerprint() == first
    assert ResultCache(tmp_path).path_for(tiny_spec()).parent.name == first


def test_code_fingerprint_covers_the_tenancy_module(tmp_path):
    """Regression: the cache-invalidation digest must include
    ``repro.cluster.tenancy`` (and any future ``repro.cluster.*`` module) —
    a multi-tenant scheduling change invalidates cached results."""
    import pathlib
    import shutil

    import repro

    src_root = pathlib.Path(repro.__file__).resolve().parent
    tenancy = src_root / "cluster" / "tenancy" / "policies.py"
    assert tenancy.is_file(), "tenancy module moved; update the digest test"
    copy = tmp_path / "repro"
    shutil.copytree(src_root, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = code_fingerprint(root=copy)
    assert before == code_fingerprint()  # faithful copy digests identically
    target = copy / "cluster" / "tenancy" / "policies.py"
    target.write_text(target.read_text() + "\n# perturbed\n")
    assert code_fingerprint(root=copy) != before
    # Explicit roots never poison the per-process memo.
    assert code_fingerprint() == before


def test_content_hash_covers_eviction_waves():
    plain = tiny_spec(eviction="none")
    waved = tiny_spec(eviction="none",
                      eviction_waves=((60.0, 0.5), (300.0, 0.4)))
    assert plain.content_hash() != waved.content_hash()
    assert waved.content_hash() == tiny_spec(
        eviction="none",
        eviction_waves=((60.0, 0.5), (300.0, 0.4))).content_hash()


def test_build_cluster_rejects_conflicting_wave_specs():
    with pytest.raises(ValueError):
        build_cluster(tiny_spec(eviction_waves=((60.0, 0.5),)))
    with pytest.raises(ValueError):
        build_cluster(RunSpec(
            workload="mr", engine="pado", eviction="none",
            eviction_waves=((60.0, 0.5),),
            transient_pools=(PoolSpec("short", 4, 90.0),)))


def test_cache_ignores_corrupt_entries(tmp_path):
    spec = tiny_spec()
    cache = ResultCache(tmp_path)
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get(spec) is None
    assert (cache.corrupt, cache.misses) == (1, 0)
    runner = SweepRunner(cache_dir=tmp_path)
    runner.run([spec])
    assert runner.stats.simulated == 1
    assert runner.stats.cache_corrupt == 1
    assert "1 corrupt cache entries" in str(runner.stats)
    assert runner.stats.to_dict()["cache_corrupt"] == 1
    assert cache.get(spec) is not None            # overwritten whole
    # a truncated (valid-prefix) entry counts too; a missing one is a miss
    path.write_text(path.read_text()[:40])
    fresh = ResultCache(tmp_path)
    assert fresh.get(spec) is None and fresh.corrupt == 1
    assert fresh.get(tiny_spec(seed=99)) is None and fresh.misses == 1


def test_cache_refuses_non_json_results(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_spec()
    result = dataclasses.replace(execute_spec(spec),
                                 extras={"bad": object()})
    assert not cache.put(spec, result)
    assert cache.get(spec) is None


def test_sweep_through_cache_matches_uncached(tmp_path):
    kwargs = dict(scale=0.02, seeds=(1, 2), rates=(EvictionRate.HIGH,),
                  engines=["pado"])
    plain = averaged_eviction_sweep("mr", **kwargs)
    runner = SweepRunner(cache_dir=tmp_path)
    cached = averaged_eviction_sweep("mr", runner=runner, **kwargs)
    rerun = averaged_eviction_sweep(
        "mr", runner=SweepRunner(cache_dir=tmp_path), **kwargs)
    assert plain == cached == rerun
