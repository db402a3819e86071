"""Completely randomized assignment and observed-data extraction.

Randomness flows through ``numpy.random.Generator`` streams seeded via
``SeedSequence``.  :func:`replication_counts` draws a coverage case's
success counts from its cell counts with no assignment, each fixed block
of replications on its own child stream, so results do not depend on
execution order.

The design fixes the arm sizes n_1..n_J, and with them N = sum n_j: every
assignment drawn or enumerated here has exactly those sizes, so they are
taken from ``arms`` and never counted again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterator

import numpy as np

from ._checks import check_arms, check_counts, check_factors, read_only, whole_numbers
from .errors import ResourceLimitError
from .population import CellCounts, PotentialTable

MAX_ENUMERATION = 10_000_000

# Replications per block of a coverage case, each block on its own stream
REPLICATION_BLOCK = 2**12
# numpy's hypergeometric draw takes fewer than 10^9 units on either side
MAX_CHAIN_UNITS = 10**9 - 1


@dataclass(frozen=True)
class ObservedData:
    """Arm sizes and success counts, the sole input to all inference.

    The arm sizes follow :func:`check_arms`, with J = 2^K of them.  Both
    vectors are kept as read-only int64 arrays; a writable array passed in
    is copied, not frozen.  Each construction checks its arguments;
    :meth:`rows` builds many datasets of one design from one checked
    count array.
    """

    k: int
    n: np.ndarray  # (J,) arm sizes, each >= 2
    n_obs: np.ndarray  # (J,) success counts, 0 <= n_obs <= n

    def __post_init__(self) -> None:
        check_factors(self.k)
        n = check_arms(self.n, n_arms=2**self.k)
        n_obs = whole_numbers(self.n_obs, "success counts")
        if n_obs.shape != n.shape:
            raise ValueError(f"expected {n.size} success counts for K={self.k}")
        # Python ints: cheaper than numpy comparisons on J entries
        if not all(0 <= s <= size for s, size in zip(n_obs.tolist(), n.tolist())):
            raise ValueError("success counts must satisfy 0 <= n_obs <= n")
        object.__setattr__(self, "n", read_only(n))
        object.__setattr__(self, "n_obs", read_only(n_obs))

    @classmethod
    def rows(cls, k: int, n, counts) -> Iterator[ObservedData]:
        """One dataset per row of the (R, J) success counts ``counts``, all
        with the arm sizes ``n``.

        K, the arm sizes (:func:`check_arms`) and the whole count array
        (:func:`check_counts`) are checked here, once, so each dataset is
        built without running :meth:`__post_init__` again.  The datasets
        share the read-only arm sizes, and each keeps its count row as a
        read-only view; a writable argument is copied once, not frozen.
        """
        check_factors(k)
        n = read_only(check_arms(n, n_arms=2**k))
        counts = read_only(check_counts(counts, n))

        def datasets() -> Iterator[ObservedData]:
            for row in counts:
                obs = object.__new__(cls)
                obs.__dict__.update(k=k, n=n, n_obs=row)
                yield obs

        return datasets()

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


def draw_assignment(arms: np.ndarray, streams: Collection[np.random.Generator]) -> np.ndarray:
    """Uniform completely randomized assignments into groups of the given
    sizes, one per stream.

    Returns the read-only (R, N) int64 arm matrix for R streams, where N is
    the sum of the arm sizes: entry (r, i) is unit i's 1-based arm in
    assignment r.  Row r splits one ``permutation(N)`` call on the r-th
    stream into consecutive blocks, which makes every partition into
    labelled groups of sizes n_1..n_J equally likely.  The streams are
    iterated once, in order.
    """
    arms = check_arms(arms)
    labels = np.repeat(np.arange(1, arms.size + 1), arms)  # one per unit
    n_units = labels.size
    arm_of = np.empty((len(streams), n_units), dtype=np.int64)
    for row, stream in zip(arm_of, streams):
        row[stream.permutation(n_units)] = labels
    arm_of.setflags(write=False)
    return arm_of


def observe(table: PotentialTable, arm_of: np.ndarray) -> np.ndarray:
    """Reveal each unit's outcome under its arm ``arm_of[r, i]`` (1-based)
    in every row r of an assignment batch, and count each row's successes
    per arm.

    Returns the (R, J) int64 success counts.  Every row of a batch that
    :func:`draw_assignment` or :func:`enumerate_assignments` builds has the
    design's arm sizes, so they are not counted again.
    """
    if arm_of.ndim != 2 or arm_of.shape[1] != table.n_units:
        raise ValueError("assignment and table describe different unit counts")
    n_obs = np.empty((arm_of.shape[0], table.n_arms), dtype=np.int64)
    # arm by arm: J boolean passes over the batch beat one int64 bincount
    # over (row, arm, outcome) codes at the J <= 4 of a coverage study
    for j, success in enumerate(table.outcomes.T.astype(bool)):
        n_obs[:, j] = np.count_nonzero((arm_of == j + 1) & success, axis=1)
    return n_obs


def child_stream(seed_seq: np.random.SeedSequence, index: int) -> np.random.Generator:
    """The PCG64 generator of the child ``seed_seq.spawn`` hands out
    ``index``-th, built without advancing the parent's spawn counter."""
    key = (*seed_seq.spawn_key, index)
    child = np.random.SeedSequence(seed_seq.entropy, spawn_key=key, pool_size=seed_seq.pool_size)
    return np.random.Generator(np.random.PCG64(child))


def _chain(cells: np.ndarray, sizes: list[int], stream: np.random.Generator, rows: int):
    """The (rows, J) success counts of ``rows`` uniform assignments of the
    units with cell counts ``cells`` to arms of ``sizes``.

    Arms are drawn in order 1..J.  Arm j takes its units from those the
    earlier arms left, grouped by their outcomes under arms j..J, in
    pattern order: each group but the last gives one hypergeometric draw
    per row of the units still needed against those in the later groups;
    the last group, like the last arm, gives the rest.  Arm j is the
    groups' most significant bit, so its successes come from the upper
    half of the groups.
    """
    left = np.repeat(cells[:, None], rows, axis=1)  # (groups, rows) units not yet assigned
    n_obs = np.empty((rows, len(sizes)), dtype=np.int64)
    for j, size in enumerate(sizes[:-1]):
        taken = np.empty_like(left)
        needed = np.full(rows, size, dtype=np.int64)
        later = left.sum(axis=0)
        for group, drawn in zip(left[:-1], taken[:-1]):
            later -= group
            drawn[:] = stream.hypergeometric(group, later, needed)
            needed -= drawn
        taken[-1] = needed
        half = len(left) // 2
        n_obs[:, j] = taken[half:].sum(axis=0)
        left -= taken
        left = left[:half] + left[half:]
    n_obs[:, -1] = left[1]
    return n_obs


def replication_counts(counts: CellCounts, arms, seed_seq, replications: int) -> np.ndarray:
    """The read-only (R, J) success counts of R uniform assignments of the
    population ``counts``, drawn from its cell counts by :func:`_chain`:
    block q of ``REPLICATION_BLOCK`` rows on ``child_stream(seed_seq, q)``,
    a short last block drawing only its rows."""
    sizes = check_arms(arms, counts.n_units, 2**counts.k).tolist()
    if counts.n_units > MAX_CHAIN_UNITS:
        raise ResourceLimitError(f"{counts.n_units} units exceed the draw's bound of {MAX_CHAIN_UNITS}")
    starts = range(0, replications, REPLICATION_BLOCK)
    blocks = [
        _chain(counts.counts, sizes, child_stream(seed_seq, q), min(REPLICATION_BLOCK, replications - start))
        for q, start in enumerate(starts)
    ]
    n_obs = np.concatenate(blocks)
    n_obs.setflags(write=False)
    return n_obs


def _multinomial(sizes: list[int], bound: int) -> int:
    """The multinomial coefficient of ``sizes`` when it is at most
    ``bound``; otherwise the first partial product past ``bound``, which
    tells the caller only that the coefficient exceeds it.  It is built one
    unit at a time as a product of binomial coefficients, each partial
    product a whole number no smaller than the last, so a large population
    stops early instead of taking the factorial of N."""
    total, placed = 1, 0
    for size in sizes:
        for i in range(1, size + 1):
            placed += 1
            total = total * placed // i
            if total > bound:
                return total
    return total


def enumerate_assignments(arms: np.ndarray) -> Iterator[np.ndarray]:
    """Yield every distinct assignment exactly once, as a read-only arm vector.

    Exhaustive-enumeration oracle for small populations; refuses to run
    when the multinomial coefficient exceeds ``MAX_ENUMERATION``.
    """
    sizes = check_arms(arms).tolist()
    if _multinomial(sizes, MAX_ENUMERATION) > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"{sizes} arm sizes give more than {MAX_ENUMERATION} assignments, "
            "the enumeration bound"
        )
    arm_of = np.empty(sum(sizes), dtype=np.int64)

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

    yield from fill(tuple(range(arm_of.size)), 1)
