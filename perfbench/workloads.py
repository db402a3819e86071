"""The benchmark's workloads: inputs, the CLI operation each one repeats, and output checks.

Every workload is a closed loop: one caller runs ``factorial2k.cli.main``
in-process, and starts the next operation when the last one returns.
The workload seed goes to every ``--seed`` and to every study seed, so
one seed gives the same inputs and, by the package's reproducibility
contract, the same output bytes on every operation of a run.

The checks hold when a later change legitimately consumes random
numbers differently: they compare with closed forms and exact
distributions (``exact.py``), with a Monte Carlo tolerance where the
output is a Monte Carlo estimate, and compare bytes only between runs
of the same seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

import exact

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "factorial2k" / "data"
TRIAL = DATA / "ahluwalia.json"
LEVEL = 0.95
QUANTILES = ((1.0 - LEVEL) / 2.0, (1.0 + LEVEL) / 2.0)

# Draw counts the CLI uses by default.  The Monte Carlo tolerances are
# built on them, so a change that cuts the defaults fails the checks.
ANALYZE_DRAWS = 200_000
SWEEP_DRAWS = 50_000

SWEEP_EFFECT = 2
SWEEP_GRID_SIZE = 100  # the CLI's default grid 0:0.99:0.01
SWEEP_PREFIX_GRID = "0:0.04:0.01"  # its first five points, for the determinism check

BALANCED_CASES = 4  # fixed prefix of the balanced fixture: 100 cases take 90 s at one worker
NEYMAN_CONFIG = Path(__file__).resolve().parent / "configs" / "coverage_neyman.json"


@dataclass(frozen=True)
class Context:
    """Where one run keeps its files, and its seed."""

    work: Path
    seed: int


def close6(reported: float, reference: float) -> bool:
    """Whether a JSON value rounded to 6 significant digits agrees with ``reference``.

    Allows half a unit in the sixth digit, plus a hair for rounding
    differences in the last bits of either computation.
    """
    if reference == 0:
        return reported == 0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(reference))) - 5)
    return abs(reported - reference) <= half_unit * (1 + 1e-6)


def _trial() -> dict:
    return json.loads(TRIAL.read_text())


def _trial_distribution(l: int) -> exact.EffectDistribution:
    trial = _trial()
    ones = [1.0] * len(trial["n"])
    return exact.effect_distribution(trial["n"], trial["n_obs"], ones, ones, trial["K"], l)


def _check_endpoints(errors: list, label: str, lower: float, upper: float, dist, draws: int) -> None:
    for value, q in zip((lower, upper), QUANTILES):
        problem = dist.quantile_error(value, q, draws)
        if problem:
            errors.append(f"{label}: {problem}")


def _read_csv(blob: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(blob.decode())))


class Trial:
    """Shared parts of the workloads on the bundled trial: nothing to prepare, no workers."""

    workers = 0

    def prepare(self, ctx: Context) -> None:
        pass

    def load(self, ctx: Context) -> None:
        from factorial2k import cli

        cli.load_analysis_input(str(TRIAL))

    def rerun(self, ctx: Context, run) -> bool | None:
        return None


class TrialAnalyze(Trial):
    """``analyze`` of the bundled trial: every effect, default draws."""

    name = "trial-analyze"
    intervals_per_op = 3 * 2  # effects x methods
    outputs = ("report.json",)

    def argv(self, ctx: Context) -> list[str]:
        return ["analyze", "--input", str(TRIAL), "--seed", str(ctx.seed),
                "--out", str(ctx.work / "report.json")]

    def check(self, ctx: Context, blobs: dict) -> list[str]:
        import jsonschema

        report = json.loads(blobs["report.json"])
        schema = json.loads((DATA / "analysis_report.schema.json").read_text())
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            return [f"report does not match the schema: {exc.message}"]
        trial = _trial()
        errors = []
        if report["seed"] != ctx.seed or report["level"] != LEVEL:
            errors.append("report echoes the wrong seed or level")
        if [row["effect"] for row in report["effects"]] != [1, 2, 3]:
            errors.append("report does not cover effects 1..3")
            return errors
        for row in report["effects"]:
            l = row["effect"]
            reference = exact.neyman_interval(trial["n"], trial["n_obs"], trial["K"], l, LEVEL)
            for key, value in reference.items():
                if not close6(row["neyman"][key], value):
                    errors.append(f"effect {l}: neyman {key} {row['neyman'][key]} != {value}")
            dist = _trial_distribution(l)
            bayes = row["bayes_indep"]
            if not close6(bayes["mean"], dist.mean()):
                errors.append(f"effect {l}: bayes mean {bayes['mean']} != {dist.mean()}")
            if not close6(bayes["variance"], dist.variance()):
                errors.append(f"effect {l}: bayes variance {bayes['variance']} != {dist.variance()}")
            _check_endpoints(errors, f"effect {l} bayes", bayes["lower"], bayes["upper"],
                             dist, ANALYZE_DRAWS)
        return errors


class TrialSweep(Trial):
    """``sensitivity`` sweep of one effect of the bundled trial on the default grid."""

    name = "trial-sweep"
    intervals_per_op = SWEEP_GRID_SIZE
    outputs = ("sweep.csv", "sweep.json")

    def argv(self, ctx: Context, grid: str | None = None, stem: str = "sweep") -> list[str]:
        argv = ["sensitivity", "--input", str(TRIAL), "--effect", str(SWEEP_EFFECT),
                "--seed", str(ctx.seed), "--csv-out", str(ctx.work / f"{stem}.csv"),
                "--out", str(ctx.work / f"{stem}.json")]
        return argv + ["--grid", grid] if grid else argv

    def check(self, ctx: Context, blobs: dict) -> list[str]:
        rows = _read_csv(blobs["sweep.csv"])
        payload = json.loads(blobs["sweep.json"])
        if rows[0] != ["rho", "lower", "upper", "width"] or len(rows) != SWEEP_GRID_SIZE + 1:
            return [f"sweep CSV has header {rows[0]} and {len(rows) - 1} rows"]
        table = [[float(v) for v in row] for row in rows[1:]]
        errors = []
        for i, (rho, lower, upper, width) in enumerate(table):
            if abs(rho - i / 100) > 1e-9 or not lower <= upper or width != upper - lower:
                errors.append(f"sweep row {i} is malformed: {rows[i + 1]}")
        if (payload["seed"], payload["effect"], payload["grid_size"], payload["draws_per_rho"]) != (
            ctx.seed, SWEEP_EFFECT, SWEEP_GRID_SIZE, SWEEP_DRAWS
        ):
            errors.append("sweep report echoes the wrong seed, effect, grid or draws")
        dist = _trial_distribution(SWEEP_EFFECT)
        if not close6(payload["posterior_mean"], dist.mean()):
            errors.append(f"sweep posterior mean {payload['posterior_mean']} != {dist.mean()}")
        widest = max(range(len(table)), key=lambda i: table[i][3])  # first of equal maxima
        conservative = payload["conservative"]
        for key, value in zip(("rho", "lower", "upper", "width"), table[widest]):
            if not close6(conservative[key], value):
                errors.append(f"conservative {key} {conservative[key]} is not row {widest}'s {value}")
        _check_endpoints(errors, "sweep rho=0", table[0][1], table[0][2], dist, SWEEP_DRAWS)
        return errors

    def rerun(self, ctx: Context, run) -> bool:
        """Sweep only the first grid points; ``rerun_errors`` compares them with the full sweep."""
        return run(self.argv(ctx, grid=SWEEP_PREFIX_GRID, stem="prefix"))

    def rerun_errors(self, ctx: Context) -> list[str]:
        """Same seed, same bytes: the prefix sweep's rows must start the full sweep's."""
        prefix = (ctx.work / "prefix.csv").read_bytes().splitlines()
        full = (ctx.work / "sweep.csv").read_bytes().splitlines()
        if prefix != full[: len(prefix)]:
            return ["prefix sweep rows differ from the full sweep's"]
        return []


class Coverage:
    """A ``simulate`` coverage study from a config the run writes with its seed."""

    outputs = ("coverage.csv", "coverage.json")

    def __init__(self, name: str, template: Path, n_cases: int, threads: int):
        self.name = name
        self.template = template
        self.n_cases = n_cases
        self.threads = threads
        self.workers = threads if threads > 1 else 0  # one thread runs in-process
        config = json.loads(template.read_text())
        self.methods = sorted(config["methods"])
        self.replications = config["replications"]
        self.intervals_per_op = n_cases * self.replications * len(self.methods)

    def prepare(self, ctx: Context) -> None:
        config = json.loads(self.template.read_text())
        if isinstance(config["cases"], str):
            fixture = (self.template.parent / config["cases"]).read_text().splitlines()
            (ctx.work / "cases.csv").write_text("\n".join(fixture[: self.n_cases]) + "\n")
            config["cases"] = "cases.csv"
        config["seed"] = ctx.seed
        (ctx.work / "study.json").write_text(json.dumps(config))

    def load(self, ctx: Context) -> None:
        from factorial2k import harness

        harness.resolve_cases(harness.StudyConfig.from_json(ctx.work / "study.json"))

    def argv(self, ctx: Context, threads: int | None = None, stem: str = "coverage") -> list[str]:
        return ["simulate", "--config", str(ctx.work / "study.json"),
                "--threads", str(threads or self.threads),
                "--out-csv", str(ctx.work / f"{stem}.csv"), "--out", str(ctx.work / f"{stem}.json")]

    def check(self, ctx: Context, blobs: dict) -> list[str]:
        rows = _read_csv(blobs["coverage.csv"])
        payload = json.loads(blobs["coverage.json"])
        if rows[0] != ["case_id", "method", "coverage", "mean_width"]:
            return [f"coverage CSV header is {rows[0]}"]
        expected = [(c, m) for c in range(1, self.n_cases + 1) for m in self.methods]
        if [(int(r[0]), r[1]) for r in rows[1:]] != expected:
            return [f"coverage CSV rows are not one per case and method ({len(rows) - 1} rows)"]
        errors = []
        if (payload["n_cases"], payload["replications"], payload["seed"]) != (
            self.n_cases, self.replications, ctx.seed
        ):
            errors.append("coverage report echoes the wrong cases, replications or seed")
        for method in self.methods:
            coverage = [float(r[2]) for r in rows[1:] if r[1] == method]
            width = [float(r[3]) for r in rows[1:] if r[1] == method]
            hits = [c * self.replications for c in coverage]
            if any(abs(h - round(h)) > 1e-6 or not 0 <= h <= self.replications for h in hits):
                errors.append(f"{method}: coverage is not a share of {self.replications} replications")
            if min(width) <= 0:
                errors.append(f"{method}: nonpositive mean width")
            summary = payload["methods"][method]
            reference = {
                "mean_coverage": fmean(coverage),
                "mean_width": fmean(width),
                "frac_coverage_above_0.96": sum(c > 0.96 for c in coverage) / len(coverage),
                "frac_coverage_below_0.94": sum(c < 0.94 for c in coverage) / len(coverage),
            }
            for key, value in reference.items():
                if not close6(summary[key], value):
                    errors.append(f"{method}: aggregate {key} {summary[key]} != {value} from the CSV")
            if not 0.9 <= reference["mean_coverage"] <= 1.0:
                errors.append(f"{method}: mean coverage {reference['mean_coverage']} is implausible")
        return errors

    def rerun(self, ctx: Context, run) -> bool | None:
        """Run the same study at one worker, if the timed one uses several."""
        if self.threads == 1:
            return None
        return run(self.argv(ctx, threads=1, stem="single"))

    def rerun_errors(self, ctx: Context) -> list[str]:
        """The output must not depend on the worker count."""
        if (ctx.work / "single.csv").read_bytes() != (ctx.work / "coverage.csv").read_bytes():
            return ["coverage CSV differs between one worker and several"]
        single = json.loads((ctx.work / "single.json").read_text())
        multi = json.loads((ctx.work / "coverage.json").read_text())
        del single["coverage_csv"], multi["coverage_csv"]
        if single != multi:
            return ["aggregates differ between one worker and several"]
        return []


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> str:
    """Interpreter and library versions and core count, for the run log."""
    import numpy
    import scipy

    return (
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {nproc()}"
    )


def workloads() -> dict:
    """The benchmark's workloads by name."""
    table = (
        TrialAnalyze(),
        TrialSweep(),
        Coverage("coverage-balanced", DATA / "study_balanced.json", BALANCED_CASES, threads=1),
        Coverage("coverage-neyman", NEYMAN_CONFIG, n_cases=100, threads=nproc()),
    )
    return {w.name: w for w in table}
