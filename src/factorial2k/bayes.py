"""Finite-population Bayesian inference under independent potential outcomes.

Per-arm success probabilities get independent Beta(alpha_j, beta_j)
priors, so the posterior is conjugate: Beta(alpha_j + n_j^obs,
beta_j + n_j - n_j^obs).  A posterior-predictive draw of effect l
imputes the N - n_j missing outcomes of each arm as a Binomial count
and recombines with the observed successes:

    step 1:  pi_j  ~ Beta(alpha_j + n_j^obs, beta_j + n_j - n_j^obs)
    step 2:  B_j   ~ Binomial(N - n_j, pi_j)
             tau_l = 2^-(K-1) N^-1 * sum_j h_lj (n_j^obs + B_j)

Integrating out pi_j instead leaves B_j ~ Beta-Binomial(N - n_j,
alpha_j + n_j^obs, beta_j + n_j - n_j^obs), so tau_l has an exact law
on a finite lattice (``predictive_pmf``); the commands read their
interval off it (``exact_interval``).  The mean and variance of tau_l
also have closed forms (``posterior_mean`` / ``posterior_variance``);
the draws, the exact law and the closed forms cross-validate each other
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_draws, check_effect, check_lattice, check_level, check_matrix
from .assignment import ObservedData
from .design import ModelMatrix, lattice_step
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
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValueError(
                f"Beta prior hyperparameters must be finite, got alpha={alpha.tolist()}, "
                f"beta={beta.tolist()}"
            )
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
    values = lattice_step(obs.k, obs.n_units) * (totals @ matrix.entries[:, l])
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
    return float(lattice_step(obs.k, obs.n_units) * (matrix.entries[:, l] @ contrib))


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
    """Monte Carlo counterpart of :func:`exact_interval`, kept as its
    reference: bounds are sample quantiles (linear interpolation between
    order statistics) of ``draws`` composed posterior draws.
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


def predictive_pmf(
    obs: ObservedData, matrix: ModelMatrix, l: int, prior: PriorSpec
) -> tuple[int, np.ndarray]:
    """Exact posterior-predictive law of effect l: tau_l equals
    ``lattice_step(K, N) * (offset + i)`` with probability ``pmf[i]``.

    The pmf convolves the arms' Beta-Binomial laws, each reversed where
    h_lj = -1 (B_j then enters as (N - n_j) - B_j, its shift in ``offset``).
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    _check_prior(obs, prior)
    missing = obs.n_units - obs.n
    check_lattice(int(missing.sum()) + 1)
    signs = matrix.entries[:, l]
    offset = int(signs @ obs.n_obs - missing[signs < 0].sum())
    a = prior.alpha + obs.n_obs
    b = prior.beta + obs.n - obs.n_obs
    pmfs = [_beta_binomial(*arm)[::sign] for arm, sign in zip(zip(missing, a, b), signs)]
    while len(pmfs) > 1:  # pairwise, so operands grow evenly; J is a power of 2
        pmfs = [_convolve(x, y) for x, y in zip(pmfs[::2], pmfs[1::2])]
    return offset, pmfs[0]


def exact_interval(
    obs: ObservedData, matrix: ModelMatrix, l: int, prior: PriorSpec, level: float
) -> IntervalReport:
    """Equal-tailed posterior-predictive credible interval for effect l.

    Each bound is an exact discrete quantile of :func:`predictive_pmf`:
    the smallest lattice value whose CDF is at least (1 -/+ level) / 2.
    The point and variance are the closed forms.
    """
    check_level(level)
    offset, pmf = predictive_pmf(obs, matrix, l, prior)
    # CDF(i) >= q is tested as P(X <= i) >= q for the lower bound and as
    # P(X > i) <= 1 - q for the upper one, each tail summed from its own
    # end; so q = 1.0 yields the support maximum, and no index passes it.
    at_least = np.cumsum(pmf[::-1])[::-1]  # P(X >= i)
    lower = np.count_nonzero(np.cumsum(pmf) < (1.0 - level) / 2.0)
    upper = np.count_nonzero(at_least[1:] > 1.0 - (1.0 + level) / 2.0)
    step = lattice_step(obs.k, obs.n_units)
    return IntervalReport(
        effect=l,
        point=posterior_mean(obs, matrix, l, prior),
        variance=posterior_variance(obs, prior),
        lower=step * int(offset + lower),
        upper=step * int(offset + upper),
        level=level,
        method="bayes-indep",
    )


def _beta_binomial(m: int, a: float, b: float) -> np.ndarray:
    """Beta-Binomial(m, a, b) probabilities of 0..m, built from the ratios
    p(x+1) / p(x) = (m - x)(x + a) / ((x + 1)(m - 1 - x + b)) in log space."""
    x = np.arange(m)
    log_ratio = np.log((m - x) * (x + a)) - np.log((x + 1) * (m - 1 - x + b))
    log_p = np.concatenate(([0.0], np.cumsum(log_ratio)))
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Linear convolution of two pmfs by real FFT."""
    n = x.size + y.size - 1
    size = 1 << (n - 1).bit_length()
    z = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:n]
    return np.maximum(z, 0.0)  # round-off leaves tiny negatives in the tails


def _check_prior(obs: ObservedData, prior: PriorSpec) -> None:
    if prior.alpha.shape != (obs.n_arms,):
        raise ValueError(f"prior is for {prior.alpha.shape[0]} arms, data has {obs.n_arms}")
