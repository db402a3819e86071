"""Coverage simulation harness.

A study takes a list of simulation cases (finite populations given as
cell counts), repeatedly randomizes each one, builds the requested
intervals from each replication's observed data, and reports per-case
coverage of the true effect together with aggregate calibration
fractions.

Reproducibility contract: replication r of case c uses the RNG stream
``SeedSequence(seed, spawn_key=(c, r))``.  Work therefore fans out
across cases and replications freely; reports are reduced in sorted
order, so results are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bayes, neyman
from ._checks import check_arms, check_effect, whole_number
from .assignment import draw_assignment, observe
from .design import build_model_matrix
from .errors import CaseFileError
from .population import CellCounts, estimands, from_cell_counts

METHODS = ("neyman", "bayes-indep")
COVERAGE_CSV_COLUMNS = ("case_id", "method", "coverage", "mean_width")

# Per-replication Bayesian intervals use a modest draw count: quantile
# noise at 2000 draws moves coverage by well under one part in a
# thousand while keeping a 100-case x 500-replication study fast.
DEFAULT_DRAWS_PER_REP = 2000
DEFAULT_LEVEL = 0.95


@dataclass(frozen=True)
class SimulationCase:
    """One finite population plus its pre-computed true effects."""

    case_id: int
    counts: CellCounts
    true_effects: np.ndarray  # (J-1,), entry l-1 is effect l

    @classmethod
    def from_counts(cls, case_id: int, counts: CellCounts) -> "SimulationCase":
        table = from_cell_counts(counts)
        matrix = build_model_matrix(counts.k)
        return cls(case_id=case_id, counts=counts, true_effects=estimands(table, matrix).tau)

    @property
    def n_units(self) -> int:
        return self.counts.n_units


@dataclass(frozen=True)
class CoverageReport:
    """Coverage rate and mean interval width for one (case, method) pair."""

    case_id: int
    method: str
    replications: int
    coverage: float
    mean_width: float


def generate_cases(
    n_cases: int, total: int, cells: int, rng: np.random.Generator
) -> list[SimulationCase]:
    """Draw simulation cases from the hierarchical cell-probability model.

    Each case draws one uniform weight per cell, normalizes the weights
    to a probability vector, and draws the cell counts as one
    multinomial of size ``total``.
    """
    if n_cases < 1:
        raise ValueError("need at least one case")
    if total < 1:
        raise ValueError("population size must be positive")
    k = {4: 1, 16: 2}.get(cells)
    if k is None:
        raise ValueError(f"cell count must be 4 (K=1) or 16 (K=2), got {cells}")
    cases = []
    for case_id in range(1, n_cases + 1):
        weights = rng.random(cells)
        counts = rng.multinomial(total, weights / weights.sum())
        cases.append(SimulationCase.from_counts(case_id, CellCounts(k=k, counts=counts)))
    return cases


def load_fixture_cases(path, expected_total: int | None = None) -> list[SimulationCase]:
    """Load cases from a CSV of comma-separated nonnegative cell counts.

    One case per row; all rows must have the same number of cells (4 or
    16) and, when ``expected_total`` is given, sum to it.  Parse errors
    report the offending 1-based row number.
    """
    cases = []
    n_cells = None
    with open(path, newline="") as handle:
        for row_no, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not f.strip() for f in row):
                continue
            try:
                counts = [int(f) for f in row]
            except ValueError as exc:
                raise CaseFileError(f"row {row_no}: {exc}") from exc
            if n_cells is None:
                n_cells = len(counts)
                if n_cells not in (4, 16):
                    raise CaseFileError(f"row {row_no}: expected 4 or 16 cells, found {n_cells}")
            elif len(counts) != n_cells:
                raise CaseFileError(f"row {row_no}: expected {n_cells} cells, found {len(counts)}")
            if min(counts) < 0:
                raise CaseFileError(f"row {row_no}: negative cell count")
            total = sum(counts)
            if expected_total is not None and total != expected_total:
                raise CaseFileError(f"row {row_no}: cells sum to {total}, expected {expected_total}")
            k = 1 if n_cells == 4 else 2
            cases.append(SimulationCase.from_counts(row_no, CellCounts(k=k, counts=np.asarray(counts))))
    if not cases:
        raise CaseFileError("case file contains no rows")
    return cases


def coverage_experiment(
    case: SimulationCase,
    arms,
    l: int,
    replications: int,
    level: float,
    methods,
    draws_per_rep: int,
    rng: np.random.Generator,
) -> list[CoverageReport]:
    """Replicate randomization + inference on one case; report coverage.

    Each replication draws a fresh assignment, observes the outcomes,
    and builds one interval per requested method.  An interval covers
    when lower <= true effect <= upper.  The Bayesian interval consumes
    the replication stream after the assignment draw, so the assignment
    sequence does not depend on which methods run.
    """
    arms = check_arms(arms, case.n_units)
    if replications < 1:
        raise ValueError("need at least one replication")
    methods = list(methods)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; supported: {METHODS}")
    table = from_cell_counts(case.counts)
    matrix = build_model_matrix(case.counts.k)
    prior = bayes.PriorSpec.uniform(table.n_arms)
    true_value = float(case.true_effects[l - 1])

    covered = {m: 0 for m in methods}
    width_sum = {m: 0.0 for m in methods}
    for stream in rng.spawn(replications):
        obs = observe(table, draw_assignment(arms, case.n_units, stream))
        for method in methods:
            if method == "neyman":
                report = neyman.confidence_interval(obs, matrix, l, level)
            else:
                report = bayes.credible_interval(
                    obs, matrix, l, prior, draws_per_rep, level, stream
                )
            covered[method] += report.lower <= true_value <= report.upper
            width_sum[method] += report.width
    return [
        CoverageReport(
            case_id=case.case_id,
            method=method,
            replications=replications,
            coverage=covered[method] / replications,
            mean_width=width_sum[method] / replications,
        )
        for method in methods
    ]


@dataclass(frozen=True)
class GeneratorSpec:
    """Inline case-generation recipe for a study config."""

    n_cases: int
    total: int
    cells: int
    seed: int


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to rerun a coverage study bit-identically."""

    cases: str | GeneratorSpec  # fixture path or generation recipe
    arms: tuple[int, ...]
    effect: int
    replications: int
    seed: int
    level: float = DEFAULT_LEVEL
    methods: tuple[str, ...] = METHODS
    draws_per_rep: int = DEFAULT_DRAWS_PER_REP

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        """Parse a config file; a relative fixture path is resolved
        against the config file's directory."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        known = {"cases", "arms", "effect", "replications", "seed", "level", "methods", "draws_per_rep"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        missing = {"cases", "arms", "effect", "replications", "seed"} - set(raw)
        if missing:
            raise ValueError(f"{path}: missing config keys {sorted(missing)}")
        cases = raw["cases"]
        if isinstance(cases, str):
            cases = str((path.parent / cases).resolve()) if not os.path.isabs(cases) else cases
        elif isinstance(cases, dict):
            try:
                cases = GeneratorSpec(
                    n_cases=whole_number(cases["n_cases"], "n_cases"),
                    total=whole_number(cases["N"], "N"),
                    cells=whole_number(cases.get("cells", 16), "cells"),
                    seed=whole_number(cases["seed"], "generator seed"),
                )
            except KeyError as exc:
                raise ValueError(f"{path}: generator spec missing key {exc}") from exc
        else:
            raise ValueError(f"{path}: 'cases' must be a path or a generator spec object")
        return cls(
            cases=cases,
            arms=tuple(whole_number(a, "arms") for a in raw["arms"]),
            effect=whole_number(raw["effect"], "effect"),
            replications=whole_number(raw["replications"], "replications"),
            seed=whole_number(raw["seed"], "seed"),
            level=float(raw.get("level", DEFAULT_LEVEL)),
            methods=tuple(raw.get("methods", METHODS)),
            draws_per_rep=whole_number(
                raw.get("draws_per_rep", DEFAULT_DRAWS_PER_REP), "draws_per_rep"
            ),
        )


@dataclass(frozen=True)
class StudyReport:
    """Per-case coverage rows plus per-method aggregate fractions."""

    config: StudyConfig
    rows: list[CoverageReport]
    aggregates: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(COVERAGE_CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([row.case_id, row.method, repr(row.coverage), repr(row.mean_width)])

    def aggregate_dict(self) -> dict:
        return {
            "n_cases": len({r.case_id for r in self.rows}),
            "replications": self.config.replications,
            "effect": self.config.effect,
            "level": self.config.level,
            "seed": self.config.seed,
            "methods": self.aggregates,
        }


def resolve_cases(config: StudyConfig) -> list[SimulationCase]:
    """Materialize the study's cases from the fixture or generator spec.

    Generated cases use the generator's own seed, so the same case set
    can be replayed under different study seeds.
    """
    if isinstance(config.cases, GeneratorSpec):
        spec = config.cases
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        return generate_cases(spec.n_cases, spec.total, spec.cells, rng)
    return load_fixture_cases(config.cases, expected_total=int(sum(config.arms)))


def _case_worker(args) -> list[CoverageReport]:
    case, config = args
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(case.case_id,)))
    return coverage_experiment(
        case,
        np.asarray(config.arms),
        config.effect,
        config.replications,
        config.level,
        config.methods,
        config.draws_per_rep,
        rng,
    )


def run_study(config: StudyConfig, threads: int | None = None) -> StudyReport:
    """Run the full coverage study described by ``config``.

    ``threads`` controls process fan-out across cases (default: all
    available cores); the output is identical for every thread count.
    """
    cases = resolve_cases(config)
    n_arms = 2 ** cases[0].counts.k
    if len(config.arms) != n_arms:
        raise ValueError(f"config lists {len(config.arms)} arms, cases have {n_arms}")
    check_effect(config.effect, n_arms)
    jobs = [(case, config) for case in cases]
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or len(cases) == 1:
        results = [_case_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_case_worker, jobs, chunksize=4))
    rows = sorted(
        (report for batch in results for report in batch),
        key=lambda r: (r.case_id, r.method),
    )
    aggregates = {}
    for method in config.methods:
        coverages = np.array([r.coverage for r in rows if r.method == method])
        widths = np.array([r.mean_width for r in rows if r.method == method])
        aggregates[method] = {
            "mean_coverage": float(coverages.mean()),
            "mean_width": float(widths.mean()),
            "frac_coverage_above_0.96": float((coverages > 0.96).mean()),
            "frac_coverage_below_0.94": float((coverages < 0.94).mean()),
        }
    return StudyReport(config=config, rows=rows, aggregates=aggregates)
