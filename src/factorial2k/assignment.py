"""Completely randomized assignment and observed-data extraction.

Randomness flows through ``numpy.random.Generator`` streams seeded via
``SeedSequence``; callers that need reproducible parallel fan-out spawn
one child stream per replication so results do not depend on execution
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._checks import check_arms, check_factors, whole_numbers
from .errors import ResourceLimitError
from .population import PotentialTable

MAX_ENUMERATION = 10_000_000


@dataclass(frozen=True)
class ObservedData:
    """Arm sizes and success counts, the sole input to all inference."""

    k: int
    n: np.ndarray  # (J,) arm sizes, each >= 2
    n_obs: np.ndarray  # (J,) success counts, 0 <= n_obs <= n

    def __post_init__(self) -> None:
        check_factors(self.k)
        j = 2**self.k
        n = whole_numbers(self.n, "arm sizes")
        n_obs = whole_numbers(self.n_obs, "success counts")
        if n.shape != (j,) or n_obs.shape != (j,):
            raise ValueError(f"expected {j} arm sizes and counts for K={self.k}")
        # Python ints: cheaper than a numpy reduction per check on J entries,
        # and their sum cannot wrap as an int64 sum could
        sizes, successes = n.tolist(), n_obs.tolist()
        if min(sizes) < 2:
            raise ValueError("every arm needs at least 2 assigned units")
        if not all(0 <= s <= size for s, size in zip(successes, sizes)):
            raise ValueError("success counts must satisfy 0 <= n_obs <= n")
        units = sum(sizes)
        if units > 2**53:  # keeps N, J x N and every lattice index exact in int64 and float64
            raise ValueError(f"total unit count must not exceed 2^53, got {units}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "n_obs", n_obs)
        self.n.setflags(write=False)
        self.n_obs.setflags(write=False)

    @property
    def n_arms(self) -> int:
        return self.n.shape[0]

    @property
    def n_units(self) -> int:
        return int(self.n.sum())

    @property
    def p_hat(self) -> np.ndarray:
        """Observed arm means n_obs / n."""
        return self.n_obs / self.n


def draw_assignment(
    arms: np.ndarray, n_units: int, streams: Sequence[np.random.Generator]
) -> np.ndarray:
    """Uniform completely randomized assignments into groups of the given
    sizes, one per stream.

    Returns the read-only (R, N) int64 arm matrix for R streams: entry
    (r, i) is unit i's 1-based arm in assignment r.  Row r splits one
    ``streams[r].permutation(n_units)`` into consecutive blocks, which
    makes every partition into labelled groups of sizes n_1..n_J equally
    likely.
    """
    arms = check_arms(arms, n_units)
    labels = np.repeat(np.arange(1, arms.size + 1), arms)
    arm_of = np.empty((len(streams), n_units), dtype=np.int64)
    for row, stream in zip(arm_of, streams):
        row[stream.permutation(n_units)] = labels
    arm_of.setflags(write=False)
    return arm_of


def observe(table: PotentialTable, arm_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reveal each unit's outcome under its arm ``arm_of[r, i]`` (1-based)
    in every row r of an assignment batch, and tally each row per arm.

    Returns ``(n, n_obs)``, (R, J) int64 arrays of arm sizes and successes.
    """
    if arm_of.ndim != 2 or arm_of.shape[1] != table.n_units:
        raise ValueError("assignment and table describe different unit counts")
    n_rows, n_arms = arm_of.shape[0], table.n_arms
    column = arm_of - 1
    # outcomes[i, column[r, i]] as one take from the flat table
    seen = table.outcomes.ravel()[column + n_arms * np.arange(table.n_units)]
    # one bincount over (row, arm, outcome): [r, j] holds arm j+1's failures, successes
    codes = 2 * (column + n_arms * np.arange(n_rows)[:, None]) + seen
    tally = np.bincount(codes.ravel(), minlength=2 * n_arms * n_rows).reshape(n_rows, n_arms, 2)
    return tally.sum(axis=2), tally[:, :, 1]


def count_assignments(n_units: int, arms: np.ndarray) -> int:
    """Multinomial coefficient: number of distinct assignments."""
    arms = np.asarray(arms, dtype=np.int64)
    if arms.sum() != n_units or (arms < 0).any():
        raise ValueError(f"arm sizes must be nonnegative and sum to {n_units}")
    return math.factorial(n_units) // math.prod(math.factorial(int(s)) for s in arms)


def enumerate_assignments(n_units: int, arms: np.ndarray) -> Iterator[np.ndarray]:
    """Yield every distinct assignment exactly once, as a read-only arm vector.

    Exhaustive-enumeration oracle for small populations; refuses to run
    when the multinomial coefficient exceeds ``MAX_ENUMERATION``.
    """
    total = count_assignments(n_units, arms)
    if total > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"{total} assignments exceed the enumeration bound {MAX_ENUMERATION}"
        )
    sizes = [int(s) for s in arms]
    arm_of = np.empty(n_units, dtype=np.int64)

    def fill(remaining: tuple[int, ...], arm: int) -> Iterator[np.ndarray]:
        if arm == len(sizes):  # last arm takes whatever is left
            arm_of[list(remaining)] = arm
            drawn = arm_of.copy()
            drawn.setflags(write=False)
            yield drawn
            return
        for chosen in itertools.combinations(remaining, sizes[arm - 1]):
            arm_of[list(chosen)] = arm
            rest = tuple(u for u in remaining if u not in chosen)
            yield from fill(rest, arm + 1)

    yield from fill(tuple(range(n_units)), 1)
