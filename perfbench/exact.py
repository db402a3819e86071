"""Closed-form references that the benchmark checks factorial2k outputs against.

Everything here is recomputed from the observed counts with the standard
library and numpy only, independently of the package's own code:

* the 2^K model matrix (same column convention as the package);
* the Neyman point estimate, conservative variance and Wald interval;
* the exact posterior-predictive distribution of an effect under the
  independent Beta-Binomial model.  Integrating out pi_j, arm j's
  missing success count is Beta-Binomial(N - n_j, alpha_j + n_j^obs,
  beta_j + n_j - n_j^obs), so the effect is a fixed offset plus a signed
  sum of J independent Beta-Binomials; its distribution is the
  convolution of their probability vectors.

These checks stay valid when the program changes how it consumes random
numbers: Monte Carlo endpoints are compared with exact quantiles in
probability space, with a tolerance set by the draw count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# Monte Carlo endpoint tolerance, in standard errors of the empirical CDF
# at the quantile level.  At 4.5 a correct sampler fails one endpoint
# check in about 150,000.
QUANTILE_Z = 4.5


def model_matrix(k: int) -> np.ndarray:
    """J x J contrast matrix: grand mean, main effects, then interactions
    ordered by subset size and lexicographically."""
    j = 2**k
    cols = [np.ones(j, dtype=np.int64)]
    for f in range(1, k + 1):
        block = 2 ** (k - f)
        cols.append(np.tile(np.repeat([-1, 1], block), 2 ** (f - 1)))
    for size in range(2, k + 1):
        for subset in itertools.combinations(range(1, k + 1), size):
            cols.append(np.prod([cols[f] for f in subset], axis=0))
    return np.column_stack(cols)


def neyman_interval(n, n_obs, k: int, l: int, level: float) -> dict:
    """Point, conservative variance and Wald bounds of effect l."""
    n = np.asarray(n, dtype=np.float64)
    p = np.asarray(n_obs, dtype=np.float64) / n
    h = model_matrix(k)[:, l]
    point = 2.0 ** -(k - 1) * float(h @ p)
    variance = 4.0 ** -(k - 1) * float((p * (1.0 - p) / (n - 1.0)).sum())
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(variance)
    return {"point": point, "variance": variance, "lower": point - half, "upper": point + half}


def betabinom_pmf(m: int, a: float, b: float) -> np.ndarray:
    """Probabilities of 0..m under Beta-Binomial(m, a, b), from math.lgamma."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + math.lgamma(m + 1)
    total = a + b + m
    logs = [
        log_norm
        - math.lgamma(x + 1)
        - math.lgamma(m - x + 1)
        + math.lgamma(x + a)
        + math.lgamma(m - x + b)
        - math.lgamma(total)
        for x in range(m + 1)
    ]
    return np.exp(np.asarray(logs))


@dataclass(frozen=True)
class EffectDistribution:
    """Exact law of an effect: value ``scale * (offset + i)`` has probability ``pmf[i]``."""

    offset: int
    scale: float
    pmf: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.scale * (self.offset + np.arange(self.pmf.size))

    def mean(self) -> float:
        return float(self.pmf @ self.values)

    def variance(self) -> float:
        centred = self.values - self.mean()
        return float(self.pmf @ (centred * centred))

    def quantile_error(self, value: float, q: float, draws: int, z: float = QUANTILE_Z) -> str | None:
        """Describe why ``value`` is not a plausible ``draws``-sample q-quantile, or None.

        A sample quantile lies on, or between two neighbours of, the
        lattice of attainable values.  With lo and hi the lattice points
        around it and F the exact CDF, it is plausible when
        F(hi) >= q - z*se and F(lo - 1) <= q + z*se, where
        se = sqrt(q (1 - q) / draws) is the empirical CDF's standard error.
        An exact discrete quantile passes for any ``draws``.
        """
        cdf = np.cumsum(self.pmf)
        position = value / self.scale - self.offset
        # Reports round to 6 significant digits, which moves a lattice value
        # by far less than a thousandth of a step at the trial's size.
        lo = math.floor(position + 1e-3)
        hi = math.ceil(position - 1e-3)
        if lo < 0 or hi >= self.pmf.size:
            return f"{value!r} lies outside the support"
        se = math.sqrt(q * (1.0 - q) / draws)
        below = cdf[lo - 1] if lo > 0 else 0.0
        if cdf[hi] < q - z * se or below > q + z * se:
            return (
                f"{value!r} is not a {draws}-draw {q:g} quantile: exact CDF "
                f"{below:.6f}..{cdf[hi]:.6f}, tolerance {z * se:.2e}"
            )
        return None


def effect_distribution(n, n_obs, alpha, beta, k: int, l: int) -> EffectDistribution:
    """Exact posterior-predictive distribution of effect l under independent Beta priors.

    The effect is 2^-(K-1) N^-1 * sum_j h_lj (n_j^obs + M_j) with
    M_j ~ Beta-Binomial(N - n_j, alpha_j + n_j^obs, beta_j + n_j - n_j^obs).
    """
    n = [int(v) for v in n]
    n_obs = [int(v) for v in n_obs]
    n_units = sum(n)
    h = model_matrix(k)[:, l]
    offset = int(sum(int(s) * y for s, y in zip(h, n_obs)))
    pmf = np.ones(1)
    for sign, size, successes, a, b in zip(h, n, n_obs, alpha, beta):
        arm = betabinom_pmf(n_units - size, a + successes, b + size - successes)
        if sign < 0:
            arm = arm[::-1]
            offset -= n_units - size
        pmf = np.convolve(pmf, arm)
    return EffectDistribution(offset=offset, scale=2.0 ** -(k - 1) / n_units, pmf=pmf)
