"""Randomization-based point estimates, conservative variances, and
normal-approximation confidence intervals.

The variance estimator plugs the unbiased within-arm sample variances
into the randomization variance and drops the (unidentifiable)
between-unit effect-variation term, so on average it over-estimates the
true sampling variance by exactly that dropped term divided by N.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from ._checks import check_effect, check_level, check_matrix
from .assignment import ObservedData
from .design import IntervalReport, ModelMatrix


def point_estimate(obs: ObservedData, matrix: ModelMatrix, l: int) -> float:
    """Unbiased estimate of factorial effect l: 2^-(K-1) * h_l' p_hat."""
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    scale = 2.0 ** -(obs.k - 1)
    return float(scale * (matrix.entries[:, l] @ obs.p_hat))


def variance_estimate(obs: ObservedData) -> float:
    """Conservative variance estimate 2^-2(K-1) * sum_j p_hat_j (1 - p_hat_j) / (n_j - 1).

    The value does not depend on which effect is being estimated.
    """
    p = obs.p_hat
    scale = 4.0 ** -(obs.k - 1)
    return float(scale * (p * (1.0 - p) / (obs.n - 1)).sum())


def confidence_interval(
    obs: ObservedData, matrix: ModelMatrix, l: int, level: float = 0.95
) -> IntervalReport:
    """Wald interval: point +/- z_(1+level)/2 * sqrt(variance estimate)."""
    check_level(level)
    point = point_estimate(obs, matrix, l)
    variance = variance_estimate(obs)
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * float(np.sqrt(variance))
    return IntervalReport(
        effect=l,
        point=point,
        variance=variance,
        lower=point - half,
        upper=point + half,
        level=level,
        method="neyman",
    )
