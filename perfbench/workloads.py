"""The three benchmark workloads, built from a seed.

Each workload is a fixed list of *cells*, each a batch of simulations;
one *pass* runs every cell once. A cell returns one SHA-256 digest per
simulation (of ``canonical_result_json``) plus, for a tenant cell, one
digest of its per-job record table, so every pass can be checked against
the first pass and against the pinned digests.

The workloads drive only ``SweepRunner(workers=0)`` with default
settings: no result cache, no speculation, no jobfile backend, no elastic
scaling, no pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional

from repro.bench.multitenant import make_cell_config, run_multitenant_cell
from repro.bench.prediction import prediction_specs
from repro.bench.runner import RunSpec, SweepRunner, canonical_result_json

#: ``--seed n`` starts the simulation seeds at
#: ``SEED_BASE + (n % SEED_RANGE) * cells_per_pass``, so the default
#: ``--seed 0`` includes the repository's default cells (seed 11).
SEED_BASE = 11
SEED_RANGE = 1_000_000

#: Figure 6: the MLR grid of 3 engines x 4 eviction rates.
FIG6_ENGINES = ("spark", "spark-checkpoint", "pado")
FIG6_RATES = ("none", "low", "medium", "high")
#: Figure 9: Pado at 27/45/63 containers (8:1), high eviction rate.
FIG9_WORKLOADS = ("als", "mlr", "mr")
FIG9_SIZES = ((24, 3), (40, 5), (56, 7))

#: The ROADMAP headline multi-tenant cell.
TENANT_CELL = dict(policy="fair", load=1.0, eviction="high", num_jobs=40)

#: The psweep MLR cell under dense correlated waves.
PREDICT_CELL = dict(workload="mlr", period=240.0, severity=0.6)

#: Tenant cells per pass, each at its own seed, so that the seed-to-seed
#: change in a cell's work (about 10% of its host time) averages out of
#: the run-to-run spread. A predict cell's work changes by about 3%, and
#: it is long (4-5 s), so its pass is one cell, repeated more often.
TENANT_SEEDS_PER_PASS = 6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figure_specs(seed: int) -> list[RunSpec]:
    """Figure 6 MLR grid plus Figure 9 scalability at the bench scales."""
    specs = [RunSpec(workload="mlr", engine=engine, seed=seed,
                     eviction=rate)
             for rate in FIG6_RATES for engine in FIG6_ENGINES]
    specs += [RunSpec(workload=workload, engine="pado", seed=seed,
                      num_reserved=reserved, num_transient=transient,
                      eviction="high")
              for workload in FIG9_WORKLOADS
              for transient, reserved in FIG9_SIZES]
    return specs


def record_table_json(records) -> str:
    """Canonical JSON of a tenancy run's per-job record table."""
    rows = [dict(dataclasses.asdict(record.request),
                 start_time=record.start_time,
                 finish_time=record.finish_time,
                 completed=record.completed, evictions=record.evictions,
                 waves_hit=record.waves_hit,
                 containers_revoked=record.containers_revoked,
                 container_seconds=record.container_seconds)
            for record in records]
    return json.dumps(rows, sort_keys=True)


class _DigestingRunner(SweepRunner):
    """A serial runner that digests every result the tenancy loop waits
    for, in dispatch order."""

    def __init__(self) -> None:
        super().__init__(workers=0)
        self.digests: list[str] = []

    def wait(self, handle):
        result = super().wait(handle)
        self.digests.append(digest(canonical_result_json(result)))
        return result


class Workload:
    """One workload at one seed: ``start()``, then ``run_cell(i)`` for
    every cell of a pass, as many passes as wanted, then ``close()``.

    A pass runs each of ``len(self.cells)`` cells once; cell ``i`` runs at
    simulation seed ``SEED_BASE + seed * seeds_per_pass + i``, or for a
    single-cell workload at ``SEED_BASE + seed``.
    """

    name = ""
    seeds_per_pass = 1

    def __init__(self, seed: int) -> None:
        # Any integer is a valid --seed; simulation seeds stay non-negative.
        first = SEED_BASE + (seed % SEED_RANGE) * self.seeds_per_pass
        self.seeds = list(range(first, first + self.seeds_per_pass))
        self.runner: Optional[SweepRunner] = None
        #: What each cell runs; ``cell_outputs`` counts its digests.
        self.cells: list = []

    def start(self) -> None:
        self.runner = SweepRunner(workers=0)

    def cell_outputs(self, index: int) -> int:
        return len(self.cells[index])

    def run_cell(self, index: int) -> list[str]:
        """Run one cell; one digest per simulation, in spec order."""
        return [digest(canonical_result_json(result))
                for result in self.runner.run(self.cells[index])]

    def close(self) -> None:
        if self.runner is not None:
            self.runner.close()


class FigureGrid(Workload):
    """Serial Figure 6 MLR grid plus Figure 9: the paper's evaluation."""

    name = "figure-grid"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cells = [figure_specs(self.seeds[0])]


class TenantCell(Workload):
    """Serial mtsweep cells: fair policy, load 1.0, high waves, 40 jobs.
    A cell's digests are its inner jobs' results in dispatch order, then
    its record table."""

    name = "tenant-cell"
    seeds_per_pass = TENANT_SEEDS_PER_PASS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cells = [make_cell_config(
            TENANT_CELL["policy"], TENANT_CELL["load"],
            TENANT_CELL["eviction"], num_jobs=TENANT_CELL["num_jobs"],
            seed=cell_seed) for cell_seed in self.seeds]

    def start(self) -> None:
        self.runner = _DigestingRunner()

    def cell_outputs(self, index: int) -> int:
        return self.cells[index].num_jobs + 1

    def run_cell(self, index: int) -> list[str]:
        self.runner.digests = []
        result = run_multitenant_cell(self.cells[index], runner=self.runner)
        return self.runner.digests + [digest(record_table_json(
            result.records))]


class PredictWaves(Workload):
    """psweep MLR cell under dense waves: static and predictive, serial."""

    name = "predict-waves"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        pair = prediction_specs(PREDICT_CELL["workload"],
                                PREDICT_CELL["period"],
                                PREDICT_CELL["severity"], seed=self.seeds[0])
        self.cells = [[pair["static"], pair["predictive"]]]


WORKLOADS = {cls.name: cls for cls in (FigureGrid, TenantCell,
                                       PredictWaves)}
