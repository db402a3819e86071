"""Finite populations of binary potential outcomes and their estimands.

The canonical representation is an N x J binary table: row i holds unit
i's outcome under every arm, of which a real experiment reveals exactly
one.  For small designs (K <= 2) a population is equivalently a vector
of 2^J cell counts, one per joint outcome pattern; the pattern for cell
index w is the J-bit binary expansion of w with arm 1 as the most
significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_arms, check_effect, check_matrix, whole_numbers
from .design import ModelMatrix
from .errors import UnsupportedRepresentationError

# Cell-count vectors have 2^(2^K) entries; K = 2 (16 cells) is the last
# size at which that stays a sensible interchange format.
MAX_CELL_FACTORS = 2


def _check_cell_form(k: int) -> None:
    if k > MAX_CELL_FACTORS:
        raise UnsupportedRepresentationError(
            f"cell counts need 2^(2^K) entries; K={k} not supported (max {MAX_CELL_FACTORS})"
        )


@dataclass(frozen=True)
class PotentialTable:
    """Complete potential-outcome table: ``outcomes[i, j-1]`` is unit i's
    binary outcome under arm j."""

    k: int
    outcomes: np.ndarray  # (N, 2^K) array of 0/1

    def __post_init__(self) -> None:
        j = 2**self.k
        if self.outcomes.ndim != 2 or self.outcomes.shape[1] != j:
            raise ValueError(f"outcome table must have {j} columns for K={self.k}")
        if self.outcomes.shape[0] < 1:
            raise ValueError("outcome table must have at least one unit")
        if not np.isin(self.outcomes, (0, 1)).all():
            raise ValueError("outcomes must be 0 or 1")
        self.outcomes.setflags(write=False)

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_arms(self) -> int:
        return self.outcomes.shape[1]


@dataclass(frozen=True)
class CellCounts:
    """Counts of units per joint outcome pattern (K <= 2 only)."""

    k: int
    counts: np.ndarray  # length 2^(2^K), nonnegative integers

    def __post_init__(self) -> None:
        _check_cell_form(self.k)
        n_cells = 2 ** (2**self.k)
        counts = whole_numbers(self.counts, "cell counts")
        if counts.ndim != 1 or counts.shape[0] != n_cells:
            raise ValueError(f"expected {n_cells} cell counts for K={self.k}, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValueError("cell counts must be nonnegative")
        object.__setattr__(self, "counts", counts)
        self.counts.setflags(write=False)

    @staticmethod
    def factors(n_cells: int) -> int:
        """K of a vector of ``n_cells`` cell counts: 4 cells are K=1, 16 are K=2."""
        k = {4: 1, 16: 2}.get(n_cells)
        if k is None:
            raise ValueError(f"expected 4 (K=1) or 16 (K=2) cell counts, got {n_cells}")
        return k

    @property
    def n_units(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class Estimands:
    """Arm means and factorial effects of a finite population.

    ``p[j-1]`` is the share of units with outcome 1 under arm j;
    ``tau[l-1]`` is the population factorial effect for effect l.
    """

    p: np.ndarray
    tau: np.ndarray

    def effect(self, l: int) -> float:
        check_effect(l, self.tau.shape[0] + 1)
        return float(self.tau[l - 1])


def cell_patterns(k: int) -> np.ndarray:
    """All 2^J joint outcome patterns as a (2^J, J) 0/1 array.

    Row w spells out cell index w in binary, arm 1 first (most
    significant bit).
    """
    j = 2**k
    words = np.arange(2**j, dtype=np.int64)
    shifts = np.arange(j - 1, -1, -1)
    return (words[:, None] >> shifts[None, :]) & 1


def from_cell_counts(counts: CellCounts) -> PotentialTable:
    """Materialize the unit-level table for a cell-count vector.

    Rows appear in ascending cell-index order (the canonical unit
    ordering), with ``counts[w]`` copies of pattern w.
    """
    patterns = cell_patterns(counts.k)
    outcomes = np.repeat(patterns, counts.counts, axis=0)
    return PotentialTable(k=counts.k, outcomes=outcomes)


def to_cell_counts(table: PotentialTable) -> CellCounts:
    """Histogram a table's rows into the 2^J cell-count vector.

    Inverse of :func:`from_cell_counts` up to row order.  Raises
    :class:`UnsupportedRepresentationError` for K > 2.
    """
    _check_cell_form(table.k)
    j = table.n_arms
    weights = 1 << np.arange(j - 1, -1, -1)
    words = table.outcomes @ weights
    counts = np.bincount(words, minlength=2**j)
    return CellCounts(k=table.k, counts=counts)


def estimands(table: PotentialTable, matrix: ModelMatrix) -> Estimands:
    """Arm means p and factorial effects tau of the full population.

    Effect l is the contrast 2^-(K-1) * h_l' p, equivalently the mean
    over units of the individual-level effects.
    """
    check_matrix(matrix, table.k)
    p = table.outcomes.mean(axis=0)
    scale = 2.0 ** -(table.k - 1)
    tau = scale * (matrix.entries[:, 1:].T @ p)
    return Estimands(p=p, tau=tau)


def individual_effects(table: PotentialTable, matrix: ModelMatrix, l: int) -> np.ndarray:
    """Unit-level factorial effects 2^-(K-1) * h_l' Y_i, one per unit."""
    check_matrix(matrix, table.k)
    check_effect(l, table.n_arms)
    scale = 2.0 ** -(table.k - 1)
    return scale * (table.outcomes @ matrix.entries[:, l])


def arm_variances(table: PotentialTable) -> np.ndarray:
    """Finite-population variances S_j^2 = N p_j (1 - p_j) / (N - 1) per arm."""
    n = table.n_units
    if n < 2:
        raise ValueError("arm variances need at least two units")
    p = table.outcomes.mean(axis=0)
    return n * p * (1.0 - p) / (n - 1)


def effect_variation(table: PotentialTable, matrix: ModelMatrix, l: int) -> float:
    """Variance S^2(tau_l) of the individual-level effects across units."""
    effects = individual_effects(table, matrix, l)
    n = table.n_units
    if n < 2:
        raise ValueError("effect variation needs at least two units")
    return float(((effects - effects.mean()) ** 2).sum() / (n - 1))


def sampling_variance(
    table: PotentialTable, matrix: ModelMatrix, arms: np.ndarray, l: int
) -> float:
    """Exact randomization variance of the effect-l estimator.

    For arm sizes n_j (each >= 2, summing to N):

        2^-2(K-1) * sum_j S_j^2 / n_j  -  S^2(tau_l) / N

    This is a population quantity; it needs the full table and is the
    target the conservative observed-data estimator is judged against.
    """
    arms = check_arms(arms, table.n_units, table.n_arms)
    check_effect(l, table.n_arms)
    s2 = arm_variances(table)
    scale = 4.0 ** -(table.k - 1)
    return float(scale * (s2 / arms).sum() - effect_variation(table, matrix, l) / table.n_units)


def pairwise_covariance(table: PotentialTable, j: int, j_other: int) -> float:
    """Finite-population covariance S_{jj'} between outcomes of two arms."""
    if j == j_other:
        raise ValueError("pairwise covariance needs two distinct arms")
    for arm in (j, j_other):
        if not 1 <= arm <= table.n_arms:
            raise ValueError(f"arm {arm} outside 1..{table.n_arms}")
    n = table.n_units
    if n < 2:
        raise ValueError("covariance needs at least two units")
    y1 = table.outcomes[:, j - 1]
    y2 = table.outcomes[:, j_other - 1]
    return float(((y1 - y1.mean()) * (y2 - y2.mean())).sum() / (n - 1))
