"""Model matrices for 2^K factorial designs.

A design with K two-level factors has J = 2^K treatment combinations
(``arms``), each a K-vector with entries in {-1, +1}.  The J x J model
matrix H holds, column by column:

* column 0: all ones (the grand mean),
* columns 1..K: the main-effect contrasts; row j of these columns is
  the j-th treatment combination,
* columns K+1..J-1: interaction contrasts, one per subset of factors of
  size >= 2, ordered by subset cardinality and then lexicographically.

Arms and effects are labelled 1-based throughout the package: arm j in
1..J corresponds to row j-1 of the matrix, effect l in 1..J-1 to column
l.  Column 0 is not an effect.

``IntervalReport`` is the one interval type every method returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._checks import check_factors, read_only


@dataclass(frozen=True)
class ModelMatrix:
    """Dense +/-1 contrast matrix for a 2^K design.

    Immutable after construction: it keeps a read-only entry array.
    """

    k: int
    entries: np.ndarray  # (J, J) integer matrix with values in {-1, +1}

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", read_only(self.entries))

    @property
    def n_arms(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class IntervalReport:
    """One interval estimate plus provenance.

    ``method`` is one of ``"neyman"``, ``"bayes-indep"``,
    ``"bayes-sensitivity"``.  Monte Carlo intervals carry the draw count
    (``None`` for exact ones) and, for sensitivity runs, the AR(1)
    parameter ``rho`` (``None`` for a custom association matrix).  For
    quantile intervals the point need not sit midway.  The code that builds
    each report guarantees lower <= upper and a nonnegative variance, so
    the report itself checks neither.  Its ``__init__`` sets the fields in
    one update of the instance dict, which a frozen dataclass would set one
    ``object.__setattr__`` at a time.
    """

    effect: int
    point: float
    variance: float
    lower: float
    upper: float
    level: float
    method: str
    mc_draws: int | None = None
    rho: float | None = None

    def __init__(
        self,
        effect: int,
        point: float,
        variance: float,
        lower: float,
        upper: float,
        level: float,
        method: str,
        mc_draws: int | None = None,
        rho: float | None = None,
    ) -> None:
        self.__dict__.update(
            effect=effect,
            point=point,
            variance=variance,
            lower=lower,
            upper=upper,
            level=level,
            method=method,
            mc_draws=mc_draws,
            rho=rho,
        )

    @property
    def width(self) -> float:
        return self.upper - self.lower


def interaction_subsets(k: int) -> list[tuple[int, ...]]:
    """Factor subsets of size >= 2, ordered by cardinality then lexicography.

    The r-th subset defines column K+r of the model matrix as the
    entry-wise product of its factors' main-effect columns.
    """
    subsets: list[tuple[int, ...]] = []
    for size in range(2, k + 1):
        subsets.extend(itertools.combinations(range(1, k + 1), size))
    return subsets


def build_model_matrix(k: int) -> ModelMatrix:
    """Construct the J x J model matrix for a 2^K factorial design.

    Main-effect column f (1-based) consists of a block of 2^(K-f)
    entries equal to -1 followed by a block of +1, the pair repeated
    2^(f-1) times.  Interaction columns are entry-wise products of
    main-effect columns, in ``interaction_subsets`` order.
    """
    check_factors(k)
    j = 2**k
    cols = [np.ones(j, dtype=np.int64)]
    for f in range(1, k + 1):
        block = 2 ** (k - f)
        half = np.concatenate([-np.ones(block, dtype=np.int64), np.ones(block, dtype=np.int64)])
        cols.append(np.tile(half, 2 ** (f - 1)))
    for subset in interaction_subsets(k):
        col = cols[subset[0]].copy()
        for f in subset[1:]:
            col *= cols[f]
        cols.append(col)
    return ModelMatrix(k=k, entries=np.column_stack(cols))


def lattice_step(k: int, n_units: int) -> float:
    """Spacing of effect values over N units: effect l is this step times
    the integer sum_j h_lj x (successes under arm j), and computing every
    effect as ``step * integer`` makes equal lattice points equal floats."""
    return 2.0 ** -(k - 1) / n_units
