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
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bayes, neyman
from ._checks import (
    check_arms,
    check_effect,
    check_keys,
    check_methods,
    csv_number,
    read_csv_rows,
    read_json_object,
    whole_number,
)
from ._fanout import fan_out
from .assignment import draw_assignment, observe
from .design import build_model_matrix, lattice_step
from .errors import CaseFileError
from .population import CellCounts, cell_patterns, from_cell_counts

METHODS = ("neyman", "bayes-indep")
COVERAGE_CSV_COLUMNS = ("case_id", "method", "coverage", "mean_width")
DEFAULT_LEVEL = 0.95


@dataclass(frozen=True)
class SimulationCase:
    """One finite population plus its pre-computed true effects.

    The true effects are lattice values (``design.lattice_step`` times an
    integer), so an exact interval endpoint equal to one is the same float.
    """

    case_id: int
    counts: CellCounts
    true_effects: np.ndarray  # (J-1,), entry l-1 is effect l

    @classmethod
    def from_counts(cls, case_id: int, counts: CellCounts) -> "SimulationCase":
        totals = cell_patterns(counts.k).T @ counts.counts
        contrasts = totals @ build_model_matrix(counts.k).entries[:, 1:]
        true_effects = lattice_step(counts.k, counts.n_units) * contrasts
        return cls(case_id=case_id, counts=counts, true_effects=true_effects)

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
    k = CellCounts.factors(cells)
    cases = []
    for case_id in range(1, n_cases + 1):
        weights = rng.random(cells)
        counts = rng.multinomial(total, weights / weights.sum())
        cases.append(SimulationCase.from_counts(case_id, CellCounts(k=k, counts=counts)))
    return cases


def load_fixture_cases(path, expected_total: int | None = None) -> list[SimulationCase]:
    """Load cases from a CSV of comma-separated nonnegative cell counts.

    One case per row, its id the 1-based row number; all rows must have
    the same number of cells (4 or 16) and, when ``expected_total`` is
    given, sum to it.  Every error names the file, and the row if any.
    """
    cases = []
    for row_no, values in read_csv_rows(path, csv_number, error=CaseFileError):
        try:
            counts = CellCounts(k=CellCounts.factors(len(values)), counts=values)
            if expected_total is not None and counts.n_units != expected_total:
                raise ValueError(f"cells sum to {counts.n_units}, expected {expected_total}")
        except ValueError as exc:
            raise CaseFileError(f"{path}: row {row_no}: {exc}") from exc
        cases.append(SimulationCase.from_counts(row_no, counts))
    return cases


def coverage_experiment(
    case: SimulationCase,
    arms,
    l: int,
    replications: int,
    level: float,
    methods,
    rng: np.random.Generator,
) -> list[CoverageReport]:
    """Replicate randomization + inference on one case; report coverage.

    Each replication draws a fresh arm vector from its own stream and
    observes the outcomes; the Neyman interval is built per replication,
    the exact Bayes intervals of all replications in one batched call.
    An interval covers when lower <= true effect <= upper.
    """
    arms = check_arms(arms, case.n_units, 2**case.counts.k)
    if replications < 1:
        raise ValueError("need at least one replication")
    methods = check_methods(methods, METHODS)
    table = from_cell_counts(case.counts)
    matrix = build_model_matrix(case.counts.k)
    true_value = float(case.true_effects[l - 1])

    counts, neyman_bounds = [], []
    for stream in rng.spawn(replications):
        obs = observe(table, draw_assignment(arms, case.n_units, stream))
        counts.append(obs.n_obs)
        if "neyman" in methods:
            report = neyman.confidence_interval(obs, matrix, l, level)
            neyman_bounds.append((report.lower, report.upper))
    bounds = {"neyman": np.array(neyman_bounds).T}
    if "bayes-indep" in methods:
        prior = bayes.PriorSpec.uniform(table.n_arms)
        bounds["bayes-indep"] = bayes.exact_bounds(arms, np.array(counts), matrix, l, prior, level)
    reports = []
    for method in methods:
        lower, upper = bounds[method]
        # a running sum in replication order, so widths add up as one at a time
        width_sum = float(np.add.accumulate(upper - lower)[-1])
        covered = int(np.count_nonzero((lower <= true_value) & (true_value <= upper)))
        reports.append(
            CoverageReport(
                case_id=case.case_id,
                method=method,
                replications=replications,
                coverage=covered / replications,
                mean_width=width_sum / replications,
            )
        )
    return reports


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", check_methods(self.methods, METHODS))

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        """Parse a config file; a relative fixture path is resolved
        against the config file's directory."""
        path = Path(path)
        raw = read_json_object(
            path,
            required=("cases", "arms", "effect", "replications", "seed"),
            optional=("level", "methods"),
        )
        cases = raw["cases"]
        if isinstance(cases, str):
            cases = str((path.parent / cases).resolve()) if not os.path.isabs(cases) else cases
        elif isinstance(cases, dict):
            check_keys(cases, ("n_cases", "N", "seed"), ("cells",), f"{path}: generator spec")
            cases = GeneratorSpec(
                n_cases=whole_number(cases["n_cases"], "n_cases"),
                total=whole_number(cases["N"], "N"),
                cells=whole_number(cases.get("cells", 16), "cells"),
                seed=whole_number(cases["seed"], "generator seed"),
            )
        else:
            raise ValueError(f"{path}: 'cases' must be a path or a generator spec object")
        methods = raw.get("methods", list(METHODS))
        level = raw.get("level", DEFAULT_LEVEL)
        for key, value in (("arms", raw["arms"]), ("methods", methods)):
            if not isinstance(value, list):
                raise ValueError(f"{path}: '{key}' must be a JSON list, got {value!r}")
        if isinstance(level, bool) or not isinstance(level, (int, float)):
            raise ValueError(f"{path}: 'level' must be a number, got {level!r}")
        fields = dict(
            cases=cases,
            arms=tuple(whole_number(a, "arms") for a in raw["arms"]),
            effect=whole_number(raw["effect"], "effect"),
            replications=whole_number(raw["replications"], "replications"),
            seed=whole_number(raw["seed"], "seed"),
            level=float(level),
            methods=tuple(methods),
        )
        try:
            return cls(**fields)
        except ValueError as exc:  # the methods rule
            raise ValueError(f"{path}: {exc}") from exc


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
        case, config.arms, config.effect, config.replications, config.level, config.methods, rng
    )


def run_study(config: StudyConfig, threads: int | None = None) -> StudyReport:
    """Run the full coverage study described by ``config``.

    ``threads`` controls process fan-out across cases (default: all
    usable cores); the output is identical for every thread count.
    """
    cases = resolve_cases(config)
    n_arms = 2 ** cases[0].counts.k
    check_arms(config.arms, cases[0].n_units, n_arms)
    check_effect(config.effect, n_arms)
    results = fan_out(_case_worker, [(case, config) for case in cases], threads, chunksize=4)
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
