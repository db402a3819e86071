"""Randomization-based point estimates, conservative variances, and
normal-approximation confidence intervals.

The variance estimator plugs the unbiased within-arm sample variances
into the randomization variance and drops the (unidentifiable)
between-unit effect-variation term, so on average it over-estimates the
true sampling variance by exactly that dropped term divided by N.

The arithmetic runs on Python floats, one arm at a time: on the few arms
of one dataset that is cheaper than numpy calls on J-element arrays.
Each call reads the arm rates ``p_j = n_obs_j / n_j`` once.  With
``h_l`` column l of the model matrix,

* point: ``2^-(K-1) * sum_j h_lj * p_j``;
* variance: ``4^-(K-1) * sum_j p_j * (1 - p_j) / (n_j - 1)``;
* half-width: ``z * sqrt(variance)``, z the normal quantile at
  ``0.5 + level / 2``.

Both sums run left to right over the arms, the order in which numpy sums
J <= 4 elements, so at K <= 2 every value equals that of numpy's
``h_l @ p`` and ``.sum()``.  At K >= 3 numpy's pairwise and BLAS sums
group the terms otherwise, and a value may differ from theirs in the
last bits: by at most J ulps of the sum of its terms' magnitudes.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from ._checks import check_effect, check_level, check_matrix
from .assignment import ObservedData
from .design import IntervalReport, ModelMatrix

_NORMAL = NormalDist()


def _rates(obs: ObservedData) -> tuple[list, list]:
    """The arm sizes and the arm rates n_obs_j / n_j, as lists of Python
    numbers."""
    n = obs.n.tolist()
    return n, [s / size for s, size in zip(obs.n_obs.tolist(), n)]


def _point(obs: ObservedData, matrix: ModelMatrix, l: int, p: list) -> float:
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    total = 0.0
    for h_j, p_j in zip(matrix.entries[:, l].tolist(), p):
        total += h_j * p_j
    return 2.0 ** -(obs.k - 1) * total


def _variance(k: int, n: list, p: list) -> float:
    total = 0.0
    for n_j, p_j in zip(n, p):
        total += p_j * (1.0 - p_j) / (n_j - 1)
    return 4.0 ** -(k - 1) * total


def point_estimate(obs: ObservedData, matrix: ModelMatrix, l: int) -> float:
    """Unbiased estimate of factorial effect l: 2^-(K-1) * h_l' p_hat."""
    return _point(obs, matrix, l, _rates(obs)[1])


def variance_estimate(obs: ObservedData) -> float:
    """Conservative variance estimate 2^-2(K-1) * sum_j p_hat_j (1 - p_hat_j) / (n_j - 1).

    The value does not depend on which effect is being estimated.
    """
    return _variance(obs.k, *_rates(obs))


def confidence_interval(
    obs: ObservedData, matrix: ModelMatrix, l: int, level: float = 0.95
) -> IntervalReport:
    """Wald interval: point +/- z_(1+level)/2 * sqrt(variance estimate)."""
    check_level(level)
    n, p = _rates(obs)
    point = _point(obs, matrix, l, p)
    variance = _variance(obs.k, n, p)
    half = _NORMAL.inv_cdf(0.5 + level / 2.0) * math.sqrt(variance)
    return IntervalReport(
        effect=l,
        point=point,
        variance=variance,
        lower=point - half,
        upper=point + half,
        level=level,
        method="neyman",
    )
