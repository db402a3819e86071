"""Command-line interface.

Subcommands::

    analyze      point/interval estimates for one observed dataset
    sensitivity  association sweep for one effect, CSV + JSON output
    simulate     coverage study driven by a JSON config
    gen-cases    draw simulation populations to a CSV file

Every command is a pure function of its flags, input files, and seed:
reports carry no timestamps, floats are rounded reproducibly, and all
randomness funnels through the single ``--seed`` flag.  When the flag is
absent, a command that draws random numbers draws a seed and echoes it;
``analyze`` without ``--rho-grid`` draws none and echoes no seed.  Exit
codes: 0 success, 2 validation failure, 3 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bayes, harness, neyman, sensitivity
from ._checks import (
    MAX_SEED,
    check_effect,
    check_seed,
    check_threads,
    csv_number,
    read_csv_rows,
    read_json_object,
    whole_number,
)
from .assignment import ObservedData
from .design import IntervalReport, build_model_matrix
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

JSON_SIG_DIGITS = 6
MAX_GRID_POINTS = 10_000

# Stream keys: every RNG consumer gets a SeedSequence(seed, spawn_key=...)
# with a distinct tag so adding consumers never shifts existing streams.
# Tag 1 is retired (the independent-model interval is exact); the sweep
# keeps tag 2, so its streams do not shift.
_KEY_SWEEP = 2


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _round_sig(value):
    """Round floats (recursively through dicts/lists) to 6 significant digits."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        return float(f"{value:.{JSON_SIG_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _round_sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_sig(v) for v in value]
    return value


def _emit_json(command: str, payload: dict, out: str | None) -> None:
    """Write ``command``'s JSON report, headed by the tool, version and command."""
    report = {"tool": "factorial2k", "version": __version__, "command": command, **payload}
    text = json.dumps(_round_sig(report), indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _convert(text: str, convert, name: str):
    """``convert(text)``; a failure names the flag or variable ``name``."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _parse_seed(value: str | None) -> int:
    if value is None:
        return int(np.random.SeedSequence().entropy) & MAX_SEED
    return check_seed(_convert(value, int, "--seed"))


def _parse_threads(value: int | None) -> int | None:
    """``--threads``, else a nonempty ``FACTORIAL_THREADS``, else None."""
    name, env = "--threads", os.environ.get("FACTORIAL_THREADS")
    if value is None and env:
        name, value = "FACTORIAL_THREADS", _convert(env, int, "FACTORIAL_THREADS")
    return check_threads(value, name)


def _parse_prior(alpha: str, beta: str, n_arms: int) -> bayes.PriorSpec:
    def parse(text: str, name: str) -> np.ndarray:
        values = [_convert(p.strip(), float, f"--{name}") for p in text.split(",")]
        if len(values) == 1:
            values = values * n_arms
        if len(values) != n_arms:
            raise ValueError(f"--{name} needs 1 or {n_arms} values, got {len(values)}")
        return np.asarray(values)

    return bayes.PriorSpec(alpha=parse(alpha, "alpha"), beta=parse(beta, "beta"))


def parse_rho_grid(spec: str, flag: str = "--rho-grid") -> np.ndarray:
    """Parse a sweep grid, ``start:stop:step`` (inclusive) or a comma list,
    into a nonempty vector inside [0, 1); raise ``ValueError`` otherwise,
    naming ``flag`` when a value is no number."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (_convert(p, float, flag) for p in parts)
        if not (0 <= start <= stop < 1 and 0 < step < math.inf):
            raise ValueError(
                f"grid {spec!r} needs 0 <= start <= stop < 1 and a positive finite step"
            )
        steps = (stop - start) / step
        if not steps < MAX_GRID_POINTS:
            raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        grid = np.round(start + step * np.arange(int(round(steps)) + 1), 12)
        grid = grid[grid <= stop + 1e-12]
    else:
        grid = np.asarray([_convert(p, float, flag) for p in spec.split(",")])
    if not ((grid >= 0) & (grid < 1)).all():  # also rejects NaN
        raise ValueError(f"grid values must lie in [0, 1), got {spec!r}")
    return grid


def _parse_effects(spec: str, n_arms: int) -> list[int]:
    if spec.strip().lower() == "all":
        return list(range(1, n_arms))
    effects = [_convert(p, int, "--effects") for p in spec.split(",")]
    for i, l in enumerate(effects):
        check_effect(l, n_arms)
        if l in effects[:i]:
            raise ValueError(f"--effects lists effect {l} twice")
    return effects


def load_analysis_input(path: str) -> tuple[ObservedData, str | None]:
    """Load observed data from a JSON file {"K":, "n":, "n_obs":, "label"?:}."""
    raw = read_json_object(path, required=("K", "n", "n_obs"), optional=("label",))
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"{path}: 'label' must be a string, got {label!r}")
    try:
        obs = ObservedData(k=whole_number(raw["K"], "K"), n=raw["n"], n_obs=raw["n_obs"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return obs, label


def load_analysis_input_csv(path: str) -> tuple[ObservedData, str | None]:
    """Load observed data from CSV rows of ``arm,size,successes``; a first
    row whose first field is not a number is a header."""
    rows = read_csv_rows(path, csv_number, header=True)
    if len(rows[0][1]) != 3:
        raise ValueError(f"{path}: row {rows[0][0]}: expected arm,size,successes")
    per_arm = {}
    for row_no, values in rows:
        try:
            arm, *counts = map(whole_number, values, ("arm", "size", "successes"))
            if arm in per_arm:
                raise ValueError(f"duplicate arm {arm}")
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from exc
        per_arm[arm] = counts
    arms = sorted(per_arm)
    k = len(arms).bit_length() - 1
    if arms != list(range(1, 2**k + 1)):
        raise ValueError(f"{path}: arms must be exactly 1..J with J a power of 2, got {arms}")
    n, n_obs = np.array([per_arm[j] for j in arms]).T
    try:
        obs = ObservedData(k=k, n=n, n_obs=n_obs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return obs, None


def _load_input(args) -> tuple[ObservedData, str | None]:
    if args.from_csv:
        return load_analysis_input_csv(args.from_csv)
    return load_analysis_input(args.input)


def _interval_dict(report: IntervalReport, point_key: str = "point") -> dict:
    return {
        point_key: report.point,
        "variance": report.variance,
        "lower": report.lower,
        "upper": report.upper,
    }


def cmd_analyze(args) -> int:
    obs, label = _load_input(args)
    matrix = build_model_matrix(obs.k)
    prior = _parse_prior(args.alpha, args.beta, obs.n_arms)
    # the exact intervals draw nothing: without --seed, only a sweep draws one
    seed = None if args.seed is None and args.rho_grid is None else _parse_seed(args.seed)
    effects = _parse_effects(args.effects, obs.n_arms)
    grid = None if args.rho_grid is None else parse_rho_grid(args.rho_grid)
    if grid is None and args.sweep_draws is not None:
        raise ValueError("--sweep-draws needs --rho-grid")
    draws = 50_000 if args.sweep_draws is None else args.sweep_draws
    threads = _parse_threads(args.threads)

    rows = []
    for l, cred in zip(effects, bayes.exact_intervals(obs, matrix, effects, prior, args.level)):
        ney = neyman.confidence_interval(obs, matrix, l, args.level)
        row = {
            "effect": l,
            "neyman": _interval_dict(ney),
            "bayes_indep": _interval_dict(cred, point_key="mean"),
        }
        if grid is not None:
            result = sensitivity.sweep(
                obs, matrix, l, prior, grid, draws, args.level, _substream(seed, _KEY_SWEEP, l),
                threads=threads,
            )
            row["sensitivity"] = {
                **_sweep_block(result),
                "intervals": [_sweep_row(r) for r in result.reports],
            }
        rows.append(row)

    head = _report_head(args, obs, label, prior, seed)
    _emit_json("analyze", {**head, "effects": rows}, args.out)
    return EXIT_OK


def _report_head(args, obs: ObservedData, label: str | None, prior, seed, **extra) -> dict:
    """The input, ``extra``, level, prior and seed echoed at the head of an
    ``analyze`` or ``sensitivity`` report; no seed when none was used."""
    echo = {"K": obs.k, "n": obs.n.tolist(), "n_obs": obs.n_obs.tolist()}
    if label is not None:
        echo["label"] = label
    head = {
        "input": echo,
        **extra,
        "level": args.level,
        "prior": {"alpha": prior.alpha.tolist(), "beta": prior.beta.tolist()},
    }
    if seed is not None:
        head["seed"] = seed
    return head


def _sweep_block(result: sensitivity.SweepResult) -> dict:
    """The summary of a sweep, the same for both commands; a custom
    association is a one-row sweep whose row has no rho."""
    conservative = result.conservative
    return {
        "association": "custom" if conservative.rho is None else "ar1",
        "draws_per_rho": conservative.mc_draws,
        "grid_size": len(result.reports),
        "posterior_mean": conservative.point,
        "conservative": _sweep_row(conservative),
    }


def _sweep_row(report: IntervalReport) -> dict:
    return {
        "rho": report.rho,
        "lower": report.lower,
        "upper": report.upper,
        "width": report.width,
    }


def load_gamma_csv(path: str) -> sensitivity.GammaStructure:
    """Read a custom JxJ association matrix from CSV."""
    rows = read_csv_rows(path, float)
    try:
        return sensitivity.gamma_custom(np.asarray([values for _, values in rows]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_sensitivity(args) -> int:
    obs, label = _load_input(args)
    matrix = build_model_matrix(obs.k)
    prior = _parse_prior(args.alpha, args.beta, obs.n_arms)
    seed = _parse_seed(args.seed)
    if args.gamma_csv is not None:
        structure = load_gamma_csv(args.gamma_csv)
    else:
        grid = parse_rho_grid(args.grid, "--grid")
    threads = _parse_threads(args.threads)  # checked alike, though --gamma-csv runs one interval
    check_effect(args.effect, obs.n_arms)  # its stream key must be a valid effect
    rng = _substream(seed, _KEY_SWEEP, args.effect)
    if args.gamma_csv is not None:
        report = sensitivity.interval(
            obs, matrix, args.effect, prior, structure, args.draws, args.level, rng
        )
        result = sensitivity.SweepResult(reports=[report], conservative=report)
    else:
        result = sensitivity.sweep(
            obs, matrix, args.effect, prior, grid, args.draws, args.level, rng, threads=threads
        )

    with open(args.csv_out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rho", "lower", "upper", "width"])
        for report in result.reports:
            rho = "" if report.rho is None else repr(report.rho)
            writer.writerow([rho, repr(report.lower), repr(report.upper), repr(report.width)])

    payload = {
        **_report_head(args, obs, label, prior, seed, effect=args.effect),
        **_sweep_block(result),
        "sweep_csv": args.csv_out,
    }
    _emit_json("sensitivity", payload, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = harness.StudyConfig.from_json(args.config)
    if args.cases:
        config = dataclasses.replace(config, cases=str(Path(args.cases).resolve()))
    report = harness.run_study(config, threads=_parse_threads(args.threads))
    report.write_csv(args.out_csv)
    _emit_json("simulate", {"coverage_csv": args.out_csv, **report.aggregate_dict()}, args.out)
    return EXIT_OK


def cmd_gen_cases(args) -> int:
    seed = _parse_seed(args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cases = harness.generate_cases(args.count, args.total, args.cells, rng)
    with open(args.out, "w", newline="") as handle:
        for case in cases:
            handle.write(",".join(str(int(c)) for c in case.counts.counts) + "\n")
    _emit_json(
        "gen-cases",
        {
            "cases": args.count,
            "total": args.total,
            "cells": args.cells,
            "seed": seed,
            "out": args.out,
        },
        None,
    )
    return EXIT_OK


@functools.cache  # in-process callers run main many times; building takes ~1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorial2k",
        description="Finite-population causal inference for 2^K factorial designs with binary outcomes.",
    )
    parser.add_argument("--version", action="version", version=f"factorial2k {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads_flag(p):
        p.add_argument("--threads", type=int, help="worker processes (default: all usable cores)")

    def add_input_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", help="JSON input file {\"K\":, \"n\":, \"n_obs\":}")
        group.add_argument("--from-csv", help="CSV input file with arm,size,successes rows")
        p.add_argument("--alpha", default="1", help="prior alpha (scalar or comma list per arm)")
        p.add_argument("--beta", default="1", help="prior beta (scalar or comma list per arm)")
        p.add_argument("--level", type=float, default=0.95, help="interval level (default 0.95)")
        p.add_argument("--seed", help="64-bit seed; random (and echoed) if omitted and needed")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        add_threads_flag(p)

    p = sub.add_parser("analyze", help="Neymanian and Bayesian intervals for each effect")
    add_input_flags(p)
    p.add_argument("--effects", default="all", help='effect selector: "all" or comma list')
    p.add_argument("--rho-grid", help="optional association sweep grid, e.g. 0:0.99:0.01")
    p.add_argument(
        "--sweep-draws", type=int, help="draws per grid point with --rho-grid (default 50000)"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sensitivity", help="association sweep for one effect")
    add_input_flags(p)
    p.add_argument("--effect", type=int, required=True, help="effect index (1-based)")
    association = p.add_mutually_exclusive_group()
    association.add_argument("--grid", default="0:0.99:0.01", help="rho grid (default 0:0.99:0.01)")
    association.add_argument(
        "--gamma-csv", help="custom JxJ association matrix (CSV) instead of the rho grid"
    )
    p.add_argument("--draws", type=int, default=50_000, help="draws per grid point (default 50000)")
    p.add_argument("--csv-out", default="sensitivity.csv", help="sweep CSV path")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("simulate", help="run a coverage study from a JSON config")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--cases", help="override the config's case file")
    p.add_argument("--out-csv", default="coverage.csv", help="coverage CSV path")
    p.add_argument("--out", help="write the aggregate JSON here instead of stdout")
    add_threads_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-cases", help="draw simulation populations to CSV")
    p.add_argument("--count", type=int, default=100, help="number of cases (default 100)")
    p.add_argument("--total", type=int, default=800, help="units per case (default 800)")
    p.add_argument("--cells", type=int, default=16, help="cells per case: 4 or 16 (default 16)")
    p.add_argument("--seed", help="64-bit seed; random (and echoed) if omitted")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_cases)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:  # the interpreter's MemoryError is bare
        print(f"error: {str(exc) or f'out of memory ({type(exc).__name__})'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
