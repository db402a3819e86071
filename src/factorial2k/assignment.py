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
from typing import Iterator

import numpy as np

from ._checks import check_arms, whole_numbers
from .errors import ResourceLimitError
from .population import PotentialTable

MAX_ENUMERATION = 10_000_000


@dataclass(frozen=True)
class Assignment:
    """Arm labels per unit: ``arm_of[i]`` is the 1-based arm of unit i."""

    arm_of: np.ndarray

    def __post_init__(self) -> None:
        self.arm_of.setflags(write=False)

    @property
    def n_units(self) -> int:
        return self.arm_of.shape[0]


@dataclass(frozen=True)
class ObservedData:
    """Arm sizes and success counts, the sole input to all inference."""

    k: int
    n: np.ndarray  # (J,) arm sizes, each >= 2
    n_obs: np.ndarray  # (J,) success counts, 0 <= n_obs <= n

    def __post_init__(self) -> None:
        j = 2**self.k
        n = whole_numbers(self.n, "arm sizes")
        n_obs = whole_numbers(self.n_obs, "success counts")
        if n.shape != (j,) or n_obs.shape != (j,):
            raise ValueError(f"expected {j} arm sizes and counts for K={self.k}")
        if (n < 2).any():
            raise ValueError("every arm needs at least 2 assigned units")
        if (n_obs < 0).any() or (n_obs > n).any():
            raise ValueError("success counts must satisfy 0 <= n_obs <= n")
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


def draw_assignment(arms: np.ndarray, n_units: int, rng: np.random.Generator) -> Assignment:
    """Uniform completely randomized assignment into groups of the given sizes.

    A uniform random permutation of the units is split into consecutive
    blocks, which makes every partition into labelled groups of sizes
    n_1..n_J equally likely.
    """
    arms = check_arms(arms, n_units)
    perm = rng.permutation(n_units)
    arm_of = np.empty(n_units, dtype=np.int64)
    arm_of[perm] = np.repeat(np.arange(1, arms.size + 1), arms)
    return Assignment(arm_of=arm_of)


def observe(table: PotentialTable, assignment: Assignment) -> ObservedData:
    """Reveal each assigned unit's outcome and tally per-arm successes."""
    if assignment.n_units != table.n_units:
        raise ValueError("assignment and table describe different unit counts")
    column = assignment.arm_of - 1
    seen = table.outcomes[np.arange(table.n_units), column].astype(np.int64, copy=False)
    # one bincount over (arm, outcome) pairs: row j holds arm j+1's failures, successes
    tally = np.bincount(2 * column + seen, minlength=2 * table.n_arms).reshape(-1, 2)
    return ObservedData(k=table.k, n=tally.sum(axis=1), n_obs=tally[:, 1])


def count_assignments(n_units: int, arms: np.ndarray) -> int:
    """Multinomial coefficient: number of distinct assignments."""
    arms = np.asarray(arms, dtype=np.int64)
    if arms.sum() != n_units or (arms < 0).any():
        raise ValueError(f"arm sizes must be nonnegative and sum to {n_units}")
    return math.factorial(n_units) // math.prod(math.factorial(int(s)) for s in arms)


def enumerate_assignments(n_units: int, arms: np.ndarray) -> Iterator[Assignment]:
    """Yield every distinct assignment exactly once.

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

    def fill(remaining: tuple[int, ...], arm: int) -> Iterator[Assignment]:
        if arm == len(sizes):  # last arm takes whatever is left
            arm_of[list(remaining)] = arm
            yield Assignment(arm_of=arm_of.copy())
            return
        for chosen in itertools.combinations(remaining, sizes[arm - 1]):
            arm_of[list(chosen)] = arm
            rest = tuple(u for u in remaining if u not in chosen)
            yield from fill(rest, arm + 1)

    yield from fill(tuple(range(n_units)), 1)
