"""Checks and file readers shared by the library and the CLI: each condition
is tested here once, so every caller rejects it in the same words."""

from __future__ import annotations

import csv
import json
import numbers
from pathlib import Path

import numpy as np

from .errors import ResourceLimitError

MIN_INTERVAL_DRAWS = 1000

# Upper bound on the cells of one interval's arrays: draws x J for a
# Monte Carlo interval, lattice points for an exact one.  An interval
# holds a few such float64 arrays at once; at this many cells each takes
# 256 MiB.
MAX_DRAW_CELLS = 2**25

# Upper bound on the binomial draws of one sensitivity interval: each of
# the J(J-1) ordered arm pairs draws 2 x draws counts.  K = 5 at 50,000
# draws (99.2M) stays within it.
MAX_SWEEP_DRAWS = 2**27

MAX_FACTORS = 10  # J x J dense storage stays trivial up to 1024 x 1024


def check_factors(k) -> None:
    """Factor count K; callers check it before they form 2^K."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= MAX_FACTORS:
        raise ValueError(f"factor count must be an integer in 1..{MAX_FACTORS}, got {k!r}")


def check_effect(l: int, n_arms: int) -> None:
    if not 1 <= l <= n_arms - 1:
        raise ValueError(f"effect index {l} outside 1..{n_arms - 1}")


def check_matrix(matrix, k: int) -> None:
    if matrix.k != k:
        raise ValueError(f"model matrix is for K={matrix.k}, data for K={k}")


def check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"interval level must be in (0,1), got {level}")


def check_draws(draws: int, n_arms: int) -> None:
    """At least ``MIN_INTERVAL_DRAWS``, and (draws, J) arrays within
    ``MAX_DRAW_CELLS``; callers check before they allocate anything."""
    if draws < MIN_INTERVAL_DRAWS:
        raise ValueError(f"need at least {MIN_INTERVAL_DRAWS} draws, got {draws}")
    if draws * n_arms > MAX_DRAW_CELLS:
        raise ResourceLimitError(
            f"{draws} draws x {n_arms} arms exceed the bound of {MAX_DRAW_CELLS} cells"
        )


def check_association(structure, n_arms: int) -> None:
    """An association matrix has one row and column per arm."""
    if structure.n_arms != n_arms:
        raise ValueError(
            f"association matrix is {structure.n_arms}x{structure.n_arms}, data has {n_arms} arms"
        )


def check_rho(rho: float) -> None:
    """The parameter of an AR(1) association lies in [0, 1)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")


def check_sweep_work(draws: int, n_arms: int) -> None:
    """The 2 J(J-1) draws binomial draws of one sensitivity interval stay
    within ``MAX_SWEEP_DRAWS``; callers check before they draw anything."""
    work = 2 * n_arms * (n_arms - 1) * draws
    if work > MAX_SWEEP_DRAWS:
        raise ResourceLimitError(
            f"{draws} draws over {n_arms * (n_arms - 1)} arm pairs make {work} binomial draws, "
            f"which exceed the bound of {MAX_SWEEP_DRAWS}"
        )


def check_methods(methods, known) -> tuple:
    """``methods`` as a tuple: nonempty, without repeats, each in ``known``."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("'methods' must name at least one method")
    if any(methods.count(m) > 1 for m in methods):
        raise ValueError(f"'methods' lists a method twice: {list(methods)}")
    for method in methods:
        if method not in known:
            raise ValueError(f"unknown method {method!r}; supported: {known}")
    return methods


def check_lattice(points: int) -> None:
    """Lattice size of an exact interval; its padded FFT arrays stay in bound."""
    if points > MAX_DRAW_CELLS:
        raise ResourceLimitError(
            f"a lattice of {points} points exceeds the bound of {MAX_DRAW_CELLS} cells"
        )


def check_arms(arms, n_units: int, n_arms: int | None = None) -> np.ndarray:
    """Arm sizes as an int64 vector; each at least 2, summing to ``n_units``,
    and ``n_arms`` of them when given."""
    arms = np.asarray(arms, dtype=np.int64)
    if arms.ndim != 1 or arms.sum() != n_units:
        raise ValueError(f"arm sizes must sum to {n_units}, got {arms.tolist()}")
    if n_arms is not None and arms.size != n_arms:
        raise ValueError(f"expected {n_arms} arm sizes, got {arms.size}")
    if (arms < 2).any():
        raise ValueError("every arm needs at least 2 units")
    return arms


def whole_number(value, name: str) -> int:
    """``value`` as an int.  Integral floats such as 10.0 pass; booleans,
    NaN, fractions and non-numbers raise ``ValueError``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, (bool, np.bool_)) or not integral:
        raise ValueError(f"{name}: {value!r} is not a whole number")
    return int(value)


def whole_numbers(values, name: str) -> np.ndarray:
    """``values`` as an int64 array under the rule of :func:`whole_number`.

    An array that already has a signed integer dtype is only looked at, not
    scanned, which keeps the check off the replication loop.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    items = np.asarray(values, dtype=object)
    try:
        ints = [whole_number(v, name) for v in items.flat]
        return np.array(ints, dtype=np.int64).reshape(items.shape)
    except OverflowError as exc:
        raise ValueError(f"{name}: values must fit in 64 bits") from exc


def csv_number(text: str) -> int | float:
    """A CSV field as an int, or as a float when it is no int literal."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_json_object(path, required, optional=()) -> dict:
    """The JSON object in file ``path``, holding every ``required`` key and
    no key outside ``required`` and ``optional``."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    check_keys(raw, required, optional, path)
    return raw


def check_keys(raw: dict, required, optional, where) -> None:
    """``raw`` holds every ``required`` key and no key outside ``required``
    and ``optional``; a fault names ``where`` and the keys."""
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(raw)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")


def read_csv_rows(path, parse, header: bool = False, error=ValueError) -> list[tuple[int, list]]:
    """The nonblank rows of CSV file ``path`` as ``(row number, values)``.

    Rows are numbered from 1, blank rows included.  Every field goes
    through ``parse``, and every row must be as wide as the first.  With
    ``header``, a first row whose first field ``parse`` rejects is skipped.
    Faults raise ``error`` naming the file, and the row if any.
    """
    rows = []
    with open(path, newline="") as handle:
        for row_no, fields in enumerate(csv.reader(handle), start=1):
            if not any(f.strip() for f in fields):
                continue
            if header:
                header = False
                try:
                    parse(fields[0])
                except ValueError:
                    continue
            try:
                values = [parse(f) for f in fields]
                if rows and len(values) != len(rows[0][1]):
                    raise ValueError(f"expected {len(rows[0][1])} fields, found {len(values)}")
            except ValueError as exc:
                raise error(f"{path}: row {row_no}: {exc}") from exc
            rows.append((row_no, values))
    if not rows:
        raise error(f"{path}: no rows")
    return rows
