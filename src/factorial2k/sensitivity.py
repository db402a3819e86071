"""Sensitivity analysis over dependence between potential outcomes.

Observed data identify each arm's marginal success probability but not
the joint behaviour of outcomes within a unit, so imputation under an
assumed association is swept over the association's strength.  The
pairwise joint distribution used here is

    Pr{Y(z_j) = 1, Y(z_j') = 1} = (1 - g) pi_j pi_j' + g min(pi_j, pi_j')

with g = gamma_jj' in [0, 1): a mixture of independence and
comonotonicity that yields closed-form conditionals.  The built-in
association preset decays exponentially in arm distance,
gamma_jj' = rho^|j - j'|, with a single parameter rho to sweep.

One sensitivity draw imputes, for every arm j, the missing outcomes of
the units observed under each other arm j' from the conditional
probabilities given their observed value, then recombines exactly like
the independent-model draw.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._checks import (
    check_association,
    check_draws,
    check_effect,
    check_level,
    check_matrix,
    check_rho,
    check_sweep_work,
    read_only,
)
from ._fanout import fan_out
from .assignment import ObservedData
from .bayes import PriorSpec, draw_marginals, posterior_mean
from .design import IntervalReport, ModelMatrix, lattice_step

# Drawn marginals are clamped into [EPS, 1-EPS] before conditioning;
# exact 0/1 draws are a measure-zero event but would divide by zero.
MARGINAL_EPS = 1e-12


@dataclass(frozen=True)
class GammaStructure:
    """Pairwise association matrix; off-diagonal entries in [0, 1)."""

    gamma: np.ndarray  # (J, J) symmetric, diagonal unused (stored as 0)
    rho: float | None = None  # AR(1) parameter; None for a custom matrix

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("association matrix must be square")
        if not np.isfinite(g).all():
            raise ValueError("association matrix entries must be finite")
        if not np.array_equal(g, g.T):
            raise ValueError("association matrix must be symmetric")
        off = ~np.eye(g.shape[0], dtype=bool)
        if (g[off] < 0).any() or (g[off] >= 1).any():
            raise ValueError("off-diagonal associations must lie in [0, 1)")
        object.__setattr__(self, "gamma", read_only(g))

    @property
    def n_arms(self) -> int:
        return self.gamma.shape[0]


def gamma_ar1(rho: float, n_arms: int) -> GammaStructure:
    """Exponential-decay association gamma_jj' = rho^|j-j'| for rho in [0, 1)."""
    check_rho(rho)
    idx = np.arange(n_arms)
    dist = np.abs(idx[:, None] - idx[None, :])
    gamma = np.where(dist == 0, 0.0, float(rho) ** dist)
    return GammaStructure(gamma=gamma, rho=float(rho))


def gamma_custom(matrix: np.ndarray) -> GammaStructure:
    """Wrap a user-supplied association matrix (diagonal is ignored)."""
    g = np.array(matrix, dtype=np.float64)
    np.fill_diagonal(g, 0.0)
    return GammaStructure(gamma=g)


def conditional_probs(pi_cond, pi_target, gamma) -> tuple:
    """Conditional success probabilities of a target arm given another arm.

    For conditioning marginal pi_j in (0,1), target marginal pi_j' and
    association g:

        Pr{j'=1 | j=1} = (1-g) pi_j' + g min(1, pi_j' / pi_j)
        Pr{j'=1 | j=0} = (1-g) pi_j' + g max(pi_j' - pi_j, 0) / (1 - pi_j)

    Returns ``(given_one, given_zero)``; all arguments broadcast.  pi_cond
    exactly 0 or 1 is rejected because one branch would condition on a
    null event.
    """
    pi_cond = np.asarray(pi_cond, dtype=np.float64)
    pi_target = np.asarray(pi_target, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if (pi_cond <= 0).any() or (pi_cond >= 1).any():
        raise ValueError("conditioning marginal must lie strictly inside (0, 1)")
    if (pi_target < 0).any() or (pi_target > 1).any():
        raise ValueError("target marginal must lie in [0, 1]")
    if (gamma < 0).any() or (gamma >= 1).any():
        raise ValueError("association must lie in [0, 1)")
    base = (1.0 - gamma) * pi_target
    given_one = base + gamma * (np.minimum(pi_cond, pi_target) / pi_cond)
    given_zero = base + gamma * np.maximum(pi_target - pi_cond, 0.0) / (1.0 - pi_cond)
    return given_one, given_zero


def imputed_counts(
    obs: ObservedData,
    pi: np.ndarray,
    gamma: GammaStructure,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the per-arm missing-success counts C_j under an association.

    For each arm j the missing outcomes are split by which arm each unit
    was observed under and by that observed value:

        B_{j|j'=1} ~ Binomial(n_j'^obs,        Pr{j=1 | j'=1})
        B_{j|j'=0} ~ Binomial(n_j' - n_j'^obs, Pr{j=1 | j'=0})
        C_j = sum over j' != j of both counts   (so 0 <= C_j <= N - n_j)

    Returns an int64 (m, J) array, one row per row of the (m, J) ``pi``;
    the drawn marginals are clamped away from 0/1 before conditioning.
    Random numbers are consumed target arm by target arm, then
    conditioning arm by conditioning arm, each pair drawing all of its
    B_{j|j'=1} before all of its B_{j|j'=0}.
    """
    check_association(gamma, obs.n_arms)
    p = np.clip(pi, MARGINAL_EPS, 1.0 - MARGINAL_EPS)
    seen = np.stack([obs.n_obs, obs.n - obs.n_obs])[:, :, None]  # (2, J, 1): with 1, with 0
    imputed = np.zeros(p.shape, dtype=np.int64)
    for target, cond in itertools.permutations(range(obs.n_arms), 2):
        probs = np.stack(conditional_probs(p[:, cond], p[:, target], gamma.gamma[cond, target]))
        imputed[:, target] += rng.binomial(seen[:, cond], probs).sum(axis=0)
    return imputed


def draw_effect(
    obs: ObservedData,
    matrix: ModelMatrix,
    l: int,
    pi: np.ndarray,
    gamma: GammaStructure,
    rng: np.random.Generator,
) -> np.ndarray:
    """Posterior-predictive draws of effect l under the given association,
    one per row of the (m, J) ``pi``: an (m,) array.

    Combines the observed successes with one :func:`imputed_counts` draw:
    tau_l = 2^-(K-1) N^-1 sum_j h_lj (n_j^obs + C_j).  Zero association
    reproduces the independent-model draw distribution.
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    totals = obs.n_obs + imputed_counts(obs, pi, gamma, rng)
    return lattice_step(obs.k, obs.n_units) * (totals @ matrix.entries[:, l])


def interval(
    obs: ObservedData,
    matrix: ModelMatrix,
    l: int,
    prior: PriorSpec,
    structure: GammaStructure,
    draws: int,
    level: float,
    rng: np.random.Generator,
) -> IntervalReport:
    """Equal-tailed credible interval for effect l under one association.

    Draws the marginals, then the imputations, from ``rng``.  The point is
    the independent model's closed-form posterior mean, not the mean of
    these draws, which the association shifts; the variance is the Monte
    Carlo sample variance.
    """
    check_association(structure, obs.n_arms)
    _check_interval(obs, matrix, l, draws, level)
    point = posterior_mean(obs, matrix, l, prior)
    pi = draw_marginals(obs, prior, rng, draws=draws)
    values = draw_effect(obs, matrix, l, pi, structure, rng)
    lower, upper = np.quantile(values, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return IntervalReport(
        effect=l,
        point=point,
        variance=float(np.var(values)),
        lower=float(lower),
        upper=float(upper),
        level=level,
        method="bayes-sensitivity",
        mc_draws=draws,
        rho=structure.rho,
    )


def _check_interval(obs, matrix, l, draws, level) -> None:
    """The checks of :func:`interval` that do not involve the association."""
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    check_draws(draws, obs.n_arms)
    check_sweep_work(draws, obs.n_arms)
    check_level(level)


@dataclass(frozen=True)
class SweepResult:
    """Per-rho interval reports plus the widest ("conservative") one."""

    reports: list[IntervalReport]
    conservative: IntervalReport


def sweep(
    obs: ObservedData,
    matrix: ModelMatrix,
    l: int,
    prior: PriorSpec,
    rho_grid,
    draws: int,
    level: float,
    rng: np.random.Generator,
    threads: int | None = None,
) -> SweepResult:
    """:func:`interval` at every point of an AR(1) association grid.

    Each grid point uses an independent child RNG stream (spawned in
    grid order), so the result is reproducible and independent of any
    parallel scheduling.  ``threads`` worker processes share the points
    (default: all usable cores).  Every argument is checked before any
    stream is spawned or worker started.  The summary interval is the
    widest one; ties go to the smallest rho.
    """
    grid = np.asarray(rho_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("rho grid must be a nonempty vector")
    for rho in grid:
        check_rho(rho)
    _check_interval(obs, matrix, l, draws, level)

    def grid_point(job) -> IntervalReport:
        rho, stream = job
        return interval(obs, matrix, l, prior, gamma_ar1(rho, obs.n_arms), draws, level, stream)

    reports = fan_out(grid_point, zip(grid.tolist(), rng.spawn(grid.size)), threads)
    widest = max(reports, key=lambda r: r.width)  # first max wins ties
    return SweepResult(reports=reports, conservative=widest)
