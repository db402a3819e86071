"""Argument checks shared by the library and the CLI: each condition is
tested here once, so every caller rejects it in the same words."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ResourceLimitError

MIN_INTERVAL_DRAWS = 1000

# Upper bound on draws x J for one Monte Carlo interval.  An interval
# holds a few (draws, J) float64 arrays at once; at this many cells each
# takes 256 MiB.
MAX_DRAW_CELLS = 2**25


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


def check_arms(arms, n_units: int) -> np.ndarray:
    """Arm sizes as an int64 vector; each at least 2, summing to ``n_units``."""
    arms = np.asarray(arms, dtype=np.int64)
    if arms.ndim != 1 or arms.sum() != n_units:
        raise ValueError(f"arm sizes must sum to {n_units}, got {arms.tolist()}")
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
