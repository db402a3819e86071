"""Finite-population Bayesian inference under independent potential outcomes.

Per-arm success probabilities get independent Beta(alpha_j, beta_j)
priors, so the posterior is conjugate: Beta(alpha_j + n_j^obs,
beta_j + n_j - n_j^obs).  A posterior-predictive draw of effect l
imputes the N - n_j missing outcomes of each arm as a Binomial count
and recombines with the observed successes:

    step 1:  pi_j  ~ Beta(alpha_j + n_j^obs, beta_j + n_j - n_j^obs)
    step 2:  B_j   ~ Binomial(N - n_j, pi_j)
             tau_l = 2^-(K-1) N^-1 * sum_j h_lj (n_j^obs + B_j)

The posterior predictive mean and variance of tau_l also have closed
forms (``posterior_mean`` / ``posterior_variance``); the Monte Carlo
path and the closed forms cross-validate each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_draws, check_effect, check_level, check_matrix
from .assignment import ObservedData
from .design import ModelMatrix
from .neyman import IntervalReport


@dataclass(frozen=True)
class PriorSpec:
    """Per-arm Beta hyperparameters, strictly positive."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        beta = np.asarray(self.beta, dtype=np.float64)
        if alpha.ndim != 1 or alpha.shape != beta.shape:
            raise ValueError("alpha and beta must be vectors of equal length")
        if (alpha <= 0).any() or (beta <= 0).any():
            raise ValueError("Beta hyperparameters must be strictly positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        self.alpha.setflags(write=False)
        self.beta.setflags(write=False)

    @classmethod
    def uniform(cls, n_arms: int) -> "PriorSpec":
        """The default flat Beta(1, 1) prior on every arm."""
        return cls(alpha=np.ones(n_arms), beta=np.ones(n_arms))


def draw_marginals(
    obs: ObservedData, prior: PriorSpec, rng: np.random.Generator, draws: int | None = None
) -> np.ndarray:
    """Sample the conjugate posterior of the arm probabilities.

    With ``draws=None`` returns a single J-vector; with ``draws=m`` an
    (m, J) batch drawn with independent rows.
    """
    _check_prior(obs, prior)
    a = prior.alpha + obs.n_obs
    b = prior.beta + obs.n - obs.n_obs
    size = None if draws is None else (int(draws), obs.n_arms)
    return rng.beta(a, b, size=size)


def draw_effect(
    obs: ObservedData,
    matrix: ModelMatrix,
    l: int,
    pi: np.ndarray,
    rng: np.random.Generator,
) -> float | np.ndarray:
    """Posterior-predictive draw(s) of effect l given marginal probabilities.

    Missing counts are drawn arm-by-arm as Binomial(N - n_j, pi_j);
    returns a scalar for a (J,) pi vector, an (m,) array for an (m, J) one.
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    b = rng.binomial(obs.n_units - obs.n, np.atleast_2d(pi))
    totals = obs.n_obs + b
    scale = 2.0 ** -(obs.k - 1) / obs.n_units
    values = scale * (totals @ matrix.entries[:, l])
    return values if pi.ndim == 2 else float(values[0])


def posterior_mean(obs: ObservedData, matrix: ModelMatrix, l: int, prior: PriorSpec) -> float:
    """Closed-form posterior predictive mean of effect l.

    With n'_j = n_j + alpha_j + beta_j and p'_j = (n_j^obs + alpha_j) / n'_j:

        2^-(K-1) N^-1 * sum_j h_lj { n_j p_hat_j + (N - n_j) p'_j }
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    _check_prior(obs, prior)
    n_prime = obs.n + prior.alpha + prior.beta
    p_prime = (obs.n_obs + prior.alpha) / n_prime
    contrib = obs.n_obs + (obs.n_units - obs.n) * p_prime
    scale = 2.0 ** -(obs.k - 1) / obs.n_units
    return float(scale * (matrix.entries[:, l] @ contrib))


def posterior_variance(obs: ObservedData, prior: PriorSpec) -> float:
    """Closed-form posterior predictive variance (identical for every effect).

        2^-2(K-1) * sum_j [(N - n_j + n'_j) / N] (1 - n_j / N) p'_j (1 - p'_j) / (n'_j + 1)
    """
    _check_prior(obs, prior)
    n_total = obs.n_units
    n_prime = obs.n + prior.alpha + prior.beta
    p_prime = (obs.n_obs + prior.alpha) / n_prime
    terms = (
        (n_total - obs.n + n_prime)
        / n_total
        * (1.0 - obs.n / n_total)
        * p_prime
        * (1.0 - p_prime)
        / (n_prime + 1.0)
    )
    return float(4.0 ** -(obs.k - 1) * terms.sum())


def posterior_variance_large_n(obs: ObservedData) -> float:
    """Large-sample limit of the posterior variance (prior washed out).

        2^-2(K-1) * sum_j (1 - n_j / N) p_hat_j (1 - p_hat_j) / (n_j - 1)

    Term by term this is the conservative randomization variance
    estimate shrunk by the finite-population factor 1 - n_j / N, hence
    never exceeds it.
    """
    p = obs.p_hat
    terms = (1.0 - obs.n / obs.n_units) * p * (1.0 - p) / (obs.n - 1)
    return float(4.0 ** -(obs.k - 1) * terms.sum())


def credible_interval(
    obs: ObservedData,
    matrix: ModelMatrix,
    l: int,
    prior: PriorSpec,
    draws: int,
    level: float,
    rng: np.random.Generator,
) -> IntervalReport:
    """Equal-tailed posterior-predictive credible interval for effect l.

    Bounds are sample quantiles (linear interpolation between order
    statistics) of ``draws`` composed posterior draws; the reported
    point and variance are the exact closed forms.
    """
    check_draws(draws, obs.n_arms)
    check_level(level)
    pi = draw_marginals(obs, prior, rng, draws=draws)
    values = draw_effect(obs, matrix, l, pi, rng)
    lower, upper = np.quantile(values, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return IntervalReport(
        effect=l,
        point=posterior_mean(obs, matrix, l, prior),
        variance=posterior_variance(obs, prior),
        lower=float(lower),
        upper=float(upper),
        level=level,
        method="bayes-indep",
        mc_draws=draws,
    )


def _check_prior(obs: ObservedData, prior: PriorSpec) -> None:
    if prior.alpha.shape != (obs.n_arms,):
        raise ValueError(f"prior is for {prior.alpha.shape[0]} arms, data has {obs.n_arms}")
