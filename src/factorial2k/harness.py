"""Coverage simulation harness.

A study takes a list of simulation cases (finite populations given as
cell counts), repeatedly randomizes each one by shuffling its units'
cells, counts each arm's successes off the shuffled cells, builds the
requested intervals from those counts, and reports per-case coverage of
the true effect together with aggregate calibration fractions.

Reproducibility contract: replication r of case c uses the RNG stream
``SeedSequence(seed, spawn_key=(c, r))``.  Cases therefore fan out
over worker processes freely; reports are reduced in sorted order, so
results are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bayes, neyman
from ._checks import (
    check_arms,
    check_effect,
    check_keys,
    check_level,
    check_methods,
    check_replications,
    check_seed,
    check_units,
    csv_number,
    read_csv_rows,
    read_json_object,
    whole_number,
)
from ._fanout import fan_out
# perfbench/spans.py wraps draw_assignment and observe here by name, so both stay
from .assignment import ChildStreams, ObservedData, draw_assignment, draw_counts, observe  # noqa: F401
from .design import build_model_matrix, lattice_step
from .errors import CaseFileError
from .population import CellCounts, cell_patterns

METHODS = ("neyman", "bayes-indep")
COVERAGE_CSV_COLUMNS = ("case_id", "method", "coverage", "mean_width")
DEFAULT_LEVEL = 0.95

# Cell budget of one replication chunk of coverage_experiment: rows x N
# units, in one (rows, N) int64 array of shuffled cells (256 KiB).  At
# N = 800 on 2 vCPUs, budgets of 2^13 to 2^17 cells ran a Neyman-only
# case equally fast within the timing noise, and each doubling past 2^14
# raised a worker's peak memory by about 0.6-2.7 MB.
ASSIGNMENT_CELLS = 2**15


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
    check_units(total)
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

    Replication r is drawn from child r of ``rng``'s PCG64
    ``SeedSequence``, the stream a fresh ``rng.spawn`` hands out r-th,
    seeded in bulk by :class:`ChildStreams` (``rng``'s spawn counter is
    left alone).  :func:`draw_counts` shuffles the units' cells in place
    and counts each arm's successes off them, in row chunks of
    ``ASSIGNMENT_CELLS`` cells, into one read-only (R, J) array, with no
    unit table or arm matrix.  Each method makes one
    (lower, upper) pair of (R,) arrays from it: Neyman from
    :meth:`ObservedData.rows`, which checks the array once, and one
    :func:`neyman.confidence_interval` per row, Bayes from one
    :func:`bayes.exact_bounds` call.  An interval covers when
    lower <= true effect <= upper.
    """
    arms = check_arms(arms, case.n_units, 2**case.counts.k)
    check_replications(replications)
    methods = check_methods(methods, METHODS)
    if not isinstance(rng.bit_generator, np.random.PCG64):
        kind = type(rng.bit_generator).__name__
        raise ValueError(f"replication streams need a PCG64 generator, got {kind}")
    matrix = build_model_matrix(case.counts.k)
    true_value = float(case.true_effects[l - 1])

    children = ChildStreams(rng.bit_generator.seed_seq)
    chunk = max(1, ASSIGNMENT_CELLS // case.n_units)
    # replication r gets child r whatever the chunk size
    starts = range(0, replications, chunk)
    streams = (children.streams(start, min(chunk, replications - start)) for start in starts)
    counts = np.concatenate([draw_counts(case.counts, arms, batch) for batch in streams])
    counts.setflags(write=False)  # so the Neyman datasets view its rows, not a copy
    bounds = {}
    if "neyman" in methods:
        datasets = ObservedData.rows(case.counts.k, arms, counts)
        intervals = (neyman.confidence_interval(obs, matrix, l, level) for obs in datasets)
        bounds["neyman"] = np.array([(i.lower, i.upper) for i in intervals]).T
    if "bayes-indep" in methods:
        prior = bayes.PriorSpec.uniform(arms.size)
        bounds["bayes-indep"] = bayes.exact_bounds(arms, counts, matrix, l, prior, level)
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
    """Inline case-generation recipe for a study config, in whole numbers."""

    n_cases: int
    total: int
    cells: int
    seed: int

    def __post_init__(self) -> None:
        names = {"n_cases": "n_cases", "total": "N", "cells": "cells", "seed": "generator seed"}
        for key, name in names.items():
            object.__setattr__(self, key, whole_number(getattr(self, key), name))


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to rerun a coverage study bit-identically; one
    built in code follows the rules of one read from a file."""

    cases: str | GeneratorSpec  # fixture path or generation recipe
    arms: tuple[int, ...]
    effect: int
    replications: int
    seed: int
    level: float = DEFAULT_LEVEL
    methods: tuple[str, ...] = METHODS

    def __post_init__(self) -> None:
        if isinstance(self.level, bool) or not isinstance(self.level, numbers.Real):
            raise ValueError(f"'level' must be a number, got {self.level!r}")
        object.__setattr__(self, "level", float(self.level))
        object.__setattr__(self, "arms", tuple(whole_number(a, "arms") for a in self.arms))
        for key in ("effect", "replications", "seed"):
            object.__setattr__(self, key, whole_number(getattr(self, key), key))
        object.__setattr__(self, "methods", check_methods(self.methods, METHODS))
        check_replications(self.replications)
        check_level(self.level)
        check_seed(self.seed, "'seed'")
        if isinstance(self.cases, GeneratorSpec):
            check_seed(self.cases.seed, "generator spec 'seed'")

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
        else:
            raise ValueError(f"{path}: 'cases' must be a path or a generator spec object")
        methods = raw.get("methods", list(METHODS))
        for key, value in (("arms", raw["arms"]), ("methods", methods)):
            if not isinstance(value, list):
                raise ValueError(f"{path}: '{key}' must be a JSON list, got {value!r}")
        try:  # the rules of GeneratorSpec and StudyConfig
            if isinstance(cases, dict):
                cases = GeneratorSpec(
                    n_cases=cases["n_cases"],
                    total=cases["N"],
                    cells=cases.get("cells", 16),
                    seed=cases["seed"],
                )
            return cls(
                cases=cases,
                arms=raw["arms"],
                effect=raw["effect"],
                replications=raw["replications"],
                seed=raw["seed"],
                level=raw.get("level", DEFAULT_LEVEL),
                methods=methods,
            )
        except ValueError as exc:
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
    can be replayed under different study seeds.  The arm sizes are
    checked before a fixture's rows are compared with their sum, so that a
    fault in them is not blamed on the case file.
    """
    if isinstance(config.cases, GeneratorSpec):
        spec = config.cases
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        return generate_cases(spec.n_cases, spec.total, spec.cells, rng)
    check_arms(config.arms)
    return load_fixture_cases(config.cases, expected_total=sum(config.arms))


def run_study(config: StudyConfig, threads: int | None = None) -> StudyReport:
    """Run the full coverage study described by ``config``.

    ``threads`` controls process fan-out across cases (default: all
    usable cores); the output is identical for every thread count.
    """
    cases = resolve_cases(config)
    n_arms = 2 ** cases[0].counts.k
    check_arms(config.arms, cases[0].n_units, n_arms)
    check_effect(config.effect, n_arms)

    def experiment(case: SimulationCase) -> list[CoverageReport]:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(case.case_id,)))
        return coverage_experiment(
            case, config.arms, config.effect, config.replications, config.level, config.methods, rng
        )

    results = fan_out(experiment, cases, threads)
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
