"""Randomization-based point estimates, conservative variances, and
normal-approximation confidence intervals.

The variance estimator plugs the unbiased within-arm sample variances
into the randomization variance and drops the (unidentifiable)
between-unit effect-variation term, so on average it over-estimates the
true sampling variance by exactly that dropped term divided by N.

The arithmetic runs on Python floats: on the few arms of one dataset
that is cheaper than numpy calls on J-element arrays.  One pass over the
arms, left to right, reads h_lj, n_obs_j and n_j once, forms the arm
rate ``p_j = n_obs_j / n_j`` and adds to both sums.  With ``h_l``
column l of the model matrix,

* point: ``2^-(K-1) * sum_j h_lj * p_j``;
* variance: ``4^-(K-1) * sum_j p_j * (1 - p_j) / (n_j - 1)``;
* half-width: ``z * sqrt(variance)``, z the normal quantile at
  ``0.5 + level / 2``.

numpy sums J <= 4 elements left to right too, so at K <= 2 every value
equals that of numpy's ``h_l @ p`` and ``.sum()``.  At K >= 3 numpy's
pairwise and BLAS sums group the terms otherwise, and a value may differ
from theirs in the last bits: by at most J ulps of the sum of its terms'
magnitudes.
"""

from __future__ import annotations

import math
from itertools import repeat
from statistics import NormalDist

from ._checks import check_effect, check_level, check_matrix
from .assignment import ObservedData
from .design import IntervalReport, ModelMatrix

_NORMAL = NormalDist()


def _estimates(obs: ObservedData, h) -> tuple[float, float]:
    """The point estimate for contrast ``h`` (J numbers) and the variance
    estimate, from one left-to-right pass over the arms."""
    point = variance = 0.0
    for h_j, s, n_j in zip(h, obs.n_obs.tolist(), obs.n.tolist()):
        p_j = s / n_j
        point += h_j * p_j
        variance += p_j * (1.0 - p_j) / (n_j - 1)
    return 2.0 ** -(obs.k - 1) * point, 4.0 ** -(obs.k - 1) * variance


def _contrast(obs: ObservedData, matrix: ModelMatrix, l: int) -> list:
    """Column l of ``matrix`` as Python ints, once it fits ``obs``."""
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    return matrix.entries[:, l].tolist()


def point_estimate(obs: ObservedData, matrix: ModelMatrix, l: int) -> float:
    """Unbiased estimate of factorial effect l: 2^-(K-1) * h_l' p_hat."""
    return _estimates(obs, _contrast(obs, matrix, l))[0]


def variance_estimate(obs: ObservedData) -> float:
    """Conservative variance estimate 2^-2(K-1) * sum_j p_hat_j (1 - p_hat_j) / (n_j - 1).

    The value does not depend on which effect is being estimated.
    """
    return _estimates(obs, repeat(0))[1]


def confidence_interval(
    obs: ObservedData, matrix: ModelMatrix, l: int, level: float = 0.95
) -> IntervalReport:
    """Wald interval: point +/- z_(1+level)/2 * sqrt(variance estimate)."""
    check_level(level)
    point, variance = _estimates(obs, _contrast(obs, matrix, l))
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
