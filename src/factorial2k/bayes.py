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
intervals off it (``exact_intervals``).  The mean and variance of tau_l
also have closed forms (``posterior_mean`` / ``posterior_variance``);
the draws, the exact law and the closed forms cross-validate each other
in the test suite.

Every exact interval comes from one batched path, whose rows pair a
dataset with the contrast signs of one effect.  ``exact_intervals``
reads every requested effect of one dataset (``analyze``) from one
batch; ``exact_bounds`` reads one effect of every replication of a
coverage case; ``exact_interval`` is the call for one effect of one
dataset.  The rows share arm sizes, and each arm takes few distinct
(count, sign) pairs: at most two for the effects of one dataset, about
34 counts under one sign in 500 balanced replications.  So each arm's
Beta-Binomial law, oriented by the sign, and its Fourier transform are
built once per distinct pair and gathered per row.  The J = 2^K laws of
a row are then convolved four at a time: floor(K/2) four-way stages,
then one pairwise stage when K is odd, each one product of spectra and
one inverse transform.  At K <= 2, as in every coverage study and the
bundled trial, that is one stage, whose spectra are the gathered ones,
so a row costs one product and one inverse FFT.

Every stage convolves whole arm laws on a circle rather than over the
whole support: a Chernoff bound on the law of each group's sum sizes a
window that leaves out less than ``TRIM`` times the tail probability its
bound is compared with at each end, and each input is placed on the
circle so that the window's cells come out of the inverse transform in
order.  Mass beyond the window wraps onto it, as does the part of a
whole arm law wider than the circle.  For a balanced coverage case the window is 864
cells where the support holds 2,401 values; at K = 7 with 100 units an
arm the last one is about 115,000 cells of a lattice of 1,625,601.
Couple the computed sum with the exact one: they differ only where some
group's exact sum leaves its window, which each of the G groups over all
stages (1 at K <= 2, fewer than J / 3 + 1 in general) does with less
than the two cuts, TRIM * (1 - level).  So any CDF value of tau_l moves
by less than G * TRIM * (1 - level), and at one stage by less than TRIM
times the tail probability.  That is less than the round-off of the
convolution itself, so a bound moves only if the exact CDF is that close
to its threshold; the test suite finds no such case in 3,000 random
datasets, nor on 300 more up to K = 4 and on small arms at K = 6 and 7.
Past its support a row's circle holds only round-off and wrapped mass,
so each bound is clipped to its row's support.  ``predictive_pmf`` cuts
nothing, so its window is the whole support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import (
    check_arms,
    check_counts,
    check_draws,
    check_effect,
    check_lattice,
    check_level,
    check_matrix,
    read_only,
)
from .assignment import ObservedData
from .design import IntervalReport, ModelMatrix, lattice_step

# Tail tolerance of the exact interval.  The circle of every convolution
# stage leaves out less than TRIM * (1 - level) / 2 of the law at its lower
# end and TRIM * (1 - (1 + level) / 2) at its upper end: mass a factor 1e15
# below the tail probability each bound is compared with.
TRIM = 1e-15

# Cell budget of one row chunk of exact_bounds: rows x the groups x the
# circle of the widest convolution stage; laws are also placed on a circle
# and transformed this many cells at a time.  A chunk holds a few arrays of
# this many float64 cells (64 KiB each).  A balanced coverage case has one
# four-way stage on a circle of 864 cells, so 9 rows a chunk.  When that
# stage ran over 1,800 cells (4 rows a chunk), budgets up to 2^16 ran it
# at most about 10% faster, and from 2^14 on they raised the peak memory
# of a 4-case study by 1 MB or more.
CHUNK_CELLS = 2**13

# Upper bound on a Beta hyperparameter.  The exact law's log-ratios multiply
# (N - n_j) by n_j^obs + alpha_j and by N - n_j^obs + beta_j; for every lattice
# that ``check_lattice`` admits (N - n_j < 2^25) these products then stay
# below 4e307, inside the float64 range.  Any larger prior is refused.
MAX_PRIOR = 1e300


@dataclass(frozen=True)
class PriorSpec:
    """Per-arm Beta hyperparameters, strictly positive and at most ``MAX_PRIOR``."""

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
        if (alpha > MAX_PRIOR).any() or (beta > MAX_PRIOR).any():
            raise ValueError(
                f"Beta prior hyperparameters must not exceed {MAX_PRIOR:g}, got "
                f"alpha={alpha.tolist()}, beta={beta.tolist()}"
            )
        object.__setattr__(self, "alpha", read_only(alpha))
        object.__setattr__(self, "beta", read_only(beta))

    @classmethod
    def uniform(cls, n_arms: int) -> "PriorSpec":
        """The default flat Beta(1, 1) prior on every arm."""
        return cls(alpha=np.ones(n_arms), beta=np.ones(n_arms))


def draw_marginals(
    obs: ObservedData, prior: PriorSpec, rng: np.random.Generator, draws: int
) -> np.ndarray:
    """Sample the conjugate posterior of the arm probabilities: a
    (draws, J) batch drawn with independent rows."""
    _check_prior(obs.n_arms, prior)
    a = prior.alpha + obs.n_obs
    b = prior.beta + obs.n - obs.n_obs
    return rng.beta(a, b, size=(int(draws), obs.n_arms))


def draw_effect(
    obs: ObservedData,
    matrix: ModelMatrix,
    l: int,
    pi: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Posterior-predictive draws of effect l, one per row of the (m, J)
    marginal probabilities ``pi``: an (m,) array.

    Missing counts are drawn arm-by-arm as Binomial(N - n_j, pi_j).
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    totals = obs.n_obs + rng.binomial(obs.n_units - obs.n, pi)
    return lattice_step(obs.k, obs.n_units) * (totals @ matrix.entries[:, l])


def posterior_mean(obs: ObservedData, matrix: ModelMatrix, l: int, prior: PriorSpec) -> float:
    """Closed-form posterior predictive mean of effect l.

    With n'_j = n_j + alpha_j + beta_j and p'_j = (n_j^obs + alpha_j) / n'_j:

        2^-(K-1) N^-1 * sum_j h_lj { n_j p_hat_j + (N - n_j) p'_j }
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    _check_prior(obs.n_arms, prior)
    return _means(obs, matrix, [l], prior)[0]


def _means(obs, matrix, effects, prior):
    """:func:`posterior_mean` of each of ``effects``, on checked arguments."""
    p_prime = (obs.n_obs + prior.alpha) / (obs.n + prior.alpha + prior.beta)
    totals = obs.n_obs + (obs.n_units - obs.n) * p_prime
    step = lattice_step(obs.k, obs.n_units)
    return [float(step * (matrix.entries[:, l] @ totals)) for l in effects]


def posterior_variance(obs: ObservedData, prior: PriorSpec) -> float:
    """Closed-form posterior predictive variance (identical for every effect).

        2^-2(K-1) * sum_j [(N - n_j + n'_j) / N] (1 - n_j / N) p'_j (1 - p'_j) / (n'_j + 1)
    """
    _check_prior(obs.n_arms, prior)
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
    h_lj = -1 (B_j then enters as (N - n_j) - B_j, its shift in ``offset``),
    over the full support: its circle leaves nothing out.
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    _check_prior(obs.n_arms, prior)
    signs = matrix.entries[:, l]
    [(_, offsets, pmfs)] = _effect_laws(obs.n, obs.n_obs[None], signs, prior, (0.0, 0.0))
    # its window starts at offset and may be longer than the lattice
    return int(offsets[0]), pmfs[0, : int((obs.n_units - obs.n).sum()) + 1]


def exact_bounds(
    n: np.ndarray, counts: np.ndarray, matrix: ModelMatrix, l: int, prior: PriorSpec, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of :func:`exact_interval` for many datasets with the same arm
    sizes ``n``: row r of the (R, J) ``counts`` holds one dataset's success
    counts, and entry r of each returned (R,) array is its bound."""
    check_level(level)
    check_effect(l, matrix.n_arms)
    _check_prior(matrix.n_arms, prior)
    n = check_arms(n, n_arms=matrix.n_arms)
    counts = check_counts(counts, n)
    lower, upper = _bounds(n, counts, matrix.entries[:, l], prior, level)
    step = lattice_step(matrix.k, int(n.sum()))
    return step * lower, step * upper


def exact_intervals(
    obs: ObservedData, matrix: ModelMatrix, effects: list[int], prior: PriorSpec, level: float
) -> list[IntervalReport]:
    """Equal-tailed posterior-predictive credible intervals for the effects
    ``effects`` of one dataset, in the order given.

    Each bound is an exact discrete quantile of the law that
    :func:`predictive_pmf` gives: the smallest lattice value whose CDF is
    at least (1 -/+ level) / 2.  All effects come from one batch, so each
    arm's law is built once per sign it takes.  The points and the
    variance are the closed forms.
    """
    check_matrix(matrix, obs.k)
    check_level(level)
    for l in effects:
        check_effect(l, obs.n_arms)
    _check_prior(obs.n_arms, prior)
    signs = matrix.entries[:, list(effects)].T
    lower, upper = _bounds(obs.n, obs.n_obs[None].repeat(len(signs), axis=0), signs, prior, level)
    step = lattice_step(obs.k, obs.n_units)
    variance = posterior_variance(obs, prior)
    bounds = zip((step * lower).tolist(), (step * upper).tolist())
    return [
        IntervalReport(
            effect=l,
            point=point,
            variance=variance,
            lower=low,
            upper=high,
            level=level,
            method="bayes-indep",
        )
        for l, point, (low, high) in zip(effects, _means(obs, matrix, effects, prior), bounds)
    ]


def exact_interval(
    obs: ObservedData, matrix: ModelMatrix, l: int, prior: PriorSpec, level: float
) -> IntervalReport:
    """The interval of :func:`exact_intervals` for the one effect l."""
    [report] = exact_intervals(obs, matrix, [l], prior, level)
    return report


def _bounds(n, counts, signs, prior, level):
    """Lattice indices of the exact bounds of each row of ``counts`` under
    ``signs`` (see ``_effect_laws``), as two (R,) int64 arrays."""
    tails = ((1.0 - level) / 2.0, 1.0 - (1.0 + level) / 2.0)
    lower, upper = np.empty((2, len(counts)), dtype=np.int64)
    if not len(counts):
        return lower, upper
    for rows, offsets, pmfs in _effect_laws(n, counts, signs, prior, [TRIM * t for t in tails]):
        # CDF(i) >= q is tested as P(X <= i) >= q for the lower bound and as
        # P(X > i) <= 1 - q for the upper one, each tail summed from its own
        # end
        lower[rows] = offsets + (np.cumsum(pmfs, axis=1) >= tails[0]).argmax(axis=1)
        at_least = np.cumsum(pmfs[:, ::-1], axis=1)[:, ::-1]  # P(X >= i)
        upper[rows] = offsets + (at_least[:, 1:] > tails[1]).sum(axis=1)
    # past its support a row's circle holds only round-off and wrapped mass,
    # which can set a bound when a tail is that small: each bound is kept in
    # the row's support, and the upper one is never below the lower, though
    # near the median the tail sums can disagree by one step at tiny levels
    missing = int(n.sum()) - n
    first = (counts * signs).sum(axis=1) - (missing * (signs < 0)).sum(axis=-1)
    last = first + missing.sum()
    lower = np.clip(lower, first, last)
    return lower, np.clip(upper, lower, last)


def _effect_laws(n, counts, signs, prior, cuts):
    """Exact laws of sum_j h_rj (n_rj^obs + B_j), one per row r of the
    (R, J) ``counts`` and of the contrast ``signs``, which broadcast to
    (R, J): one (J,) row serves every dataset.  They are yielded in row
    chunks as ``(rows, offsets, pmfs)``: row r's value ``offsets[r] + i``
    has probability ``pmfs[r, i]``; past its support lie only round-off and
    wrapped mass.

    Each arm's law is built and oriented once per distinct (count, sign)
    of that arm.  The J = 2^K laws are then convolved in floor(K/2) stages
    of four, then one of two when K is odd, each on a circle.  A group of
    a stage sums its arm laws to X; with c_j their rounded means, C their
    sum and L_j(theta) their log-MGFs about c_j, the Chernoff bound puts at
    most exp(sum_j L_j(theta) - theta t) of X's mass at X >= C + t, and
    likewise below.  So each group keeps, over its rows, the values
    C - low .. C + high - 1 that leave less than the ``cuts`` (see
    ``TRIM``) outside at each end, and the stage convolves on the smallest
    ``_fft_size`` that holds every group's.  Each input sits on the circle
    with its c in cell 0, but the first of each group with its c in the
    group's cell ``low``, so each group's window comes out of the inverse
    transform in order, its far tails wrapped onto it.  The first stage
    multiplies the spectra of the whole distinct laws, gathered by each
    row's counts and signs.  Rows go through the stages ``CHUNK_CELLS``
    cells at a time.
    """
    n_units = int(n.sum())
    missing = n_units - n
    check_lattice(int(missing.sum()) + 1)  # the values of each row's sum
    # where h_j = -1 the law enters reversed: m_j - B_j ~ Beta-Binomial(m_j, b, a)
    flipped = signs < 0
    offsets = (counts * signs).sum(axis=1) - (missing * flipped).sum(axis=-1)
    # every arm's distinct laws, by arm and then key: arm j keys a count c as c
    # where h_j = +1 and as n_j + 1 + c where h_j = -1, below 2 (max n + 1)
    stride = 2 * (int(n.max()) + 1)
    codes = np.arange(n.size) * stride + counts + flipped * (n + 1)
    distinct, index = np.unique(codes, return_inverse=True)
    index = index.reshape(codes.shape)  # each row's law of each arm among the distinct ones
    arm, keys = np.divmod(distinct, stride)
    reverse = keys > n[arm]
    values = keys - reverse * (n[arm] + 1)
    a, b = prior.alpha[arm] + values, prior.beta[arm] + n[arm] - values
    a, b = np.where(reverse, b, a), np.where(reverse, a, b)
    m = missing[arm]
    pmfs = _beta_binomial(m, a, b)
    # each law's rounded mean c = rint(m a / (a + b)) and log-MGF about c on a
    # grid of exponents theta, 17 a side, with theta * x within 256 of 0, far
    # from exp's overflow at 709; sum_x p(x) exp(theta x) is taken as sum_a
    # exp(theta a B) sum_b p(a B + b) exp(theta b), 2 sqrt(x) exps a theta, on
    # the laws zero-padded to whole blocks of B.  No BLAS (so einsum): out of
    # memory, OpenBLAS ends the process with exit 1 or hangs a forked worker
    x = np.arange(pmfs.shape[1])
    centers = np.rint(m * a / (a + b)).astype(np.int64)
    grid = [256.0 / (x.size - 1) * 2.0 ** (-i / 2.0) for i in range(17)]
    theta = np.array(grid + [-t for t in grid])  # the upper end, then the lower end
    block = math.isqrt(x.size - 1) + 1
    powers = np.exp(np.multiply.outer(np.concatenate((x[:block], x[::block])), theta))
    blocks = np.zeros((len(pmfs), -(-x.size // block) * block))
    blocks[:, : x.size] = pmfs
    sums = np.empty((len(pmfs), theta.size + 2))
    inner = np.einsum("ib,bt->it", blocks.reshape(-1, block), powers[:block])
    inner = inner.reshape(len(pmfs), -1, theta.size)
    np.log(np.einsum("lat,at->lt", inner, powers[block:]), out=sums[:, :-2])
    del blocks, inner
    sums[:, :-2] -= np.multiply.outer(centers, theta)
    # then how far the support reaches above and below c: per law, then per
    # row and arm, then per group at each stage (whole numbers, exact in float64)
    sums[:, -2:] = np.array((m - centers, centers)).T
    sums = sums[index]
    # no cut (predictive_pmf) keeps the whole support
    high_cut, low_cut = (math.log(c) if c else -math.inf for c in cuts[::-1])
    log_cuts = np.array([high_cut] * len(grid) + [low_cut] * len(grid))
    stages, k = [], n.size.bit_length() - 1
    for fan_in in [4] * (k // 2) + [2] * (k % 2):
        sums = sums.reshape(len(sums), -1, fan_in, sums.shape[-1]).sum(axis=2)
        # the values kept past the center at each end: one less than the least
        # t with exp(sum_j L_j(theta) - |theta| t) < cut, at the best theta,
        # and no more than the support holds
        reach = np.floor((sums[..., :-2] - log_cuts) / np.abs(theta))
        reach = reach.reshape(*sums.shape[:2], 2, -1).min(axis=3)
        high, low = np.minimum(reach, sums[..., -2:]).max(axis=0).astype(int).T  # per group
        stages.append((fan_in, _fft_size(int((low + 1 + high).max())), low))
    offsets += sums[:, 0, -1].astype(np.int64) - low[0]  # the value of each row's cell 0
    fan_in, size, low = stages[0]
    spectra = _spectra(pmfs, np.where(arm % fan_in, 0, low[arm // fan_in]) - centers, size)
    del pmfs
    chunk = max(1, CHUNK_CELLS // max(size * low.size for _, size, low in stages))
    for start in range(0, len(counts), chunk):
        rows = slice(start, start + chunk)
        for stage, (fan_in, size, low) in enumerate(stages):
            if stage:  # the product overwrites the chunk's own transform of the laws
                # the stage before left each law's center in its group's cell low
                inputs, group = laws.reshape(-1, laws.shape[2]), np.arange(laws.shape[1])
                shifts = np.where(group % fan_in, 0, low[group // fan_in]) - stages[stage - 1][2]
                transform = _spectra(inputs, np.tile(shifts, len(laws)), size)
                transform = transform.reshape(*laws.shape[:2], -1)
                del laws, inputs
                product = transform[:, 0::fan_in]
                for i in range(1, fan_in):
                    product *= transform[:, i::fan_in]
            else:  # each row's arm spectra, gathered by its index one factor at a time
                product = spectra[index[rows, 0::fan_in]]
                for i in range(1, fan_in):
                    product *= spectra[index[rows, i::fan_in]]
                if start + chunk >= len(counts):
                    del spectra  # the last chunk has gathered its transforms
            laws = np.fft.irfft(product, size)
            del product  # products and transforms are the largest arrays here
            np.maximum(laws, 0.0, out=laws)  # round-off leaves tiny negatives in the tails
        yield rows, offsets[rows], laws[:, 0]


def _spectra(laws, shifts, size):
    """The ``rfft`` of each of ``laws`` placed by ``_wrap`` on ``size`` cells,
    ``CHUNK_CELLS`` cells at a time: never all placed next to their spectra."""
    spectra = np.empty((len(laws), size // 2 + 1), dtype=complex)
    block = max(1, CHUNK_CELLS // size)
    for start in range(0, len(laws), block):
        rows = slice(start, start + block)
        spectra[rows] = np.fft.rfft(_wrap(laws[rows], shifts[rows], size))
    return spectra


def _wrap(laws, shifts, size):
    """Each of ``laws`` shifted by ``shifts`` and wrapped onto ``size`` cells:
    entry x of law l lands in cell (x + shifts[l]) mod size."""
    wrapped = np.zeros((len(laws), size))
    for row, law, shift in zip(wrapped, laws, (shifts % size).tolist()):
        if law.size > size:  # fold the law onto the circle first
            law = np.pad(law, (0, -law.size % size)).reshape(-1, size).sum(axis=0)
        split = min(law.size, size - shift)  # the entries that land before the end
        row[shift : shift + split] = law[:split]
        if split < law.size:
            row[: law.size - split] = law[split:]
    return wrapped


def _beta_binomial(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Beta-Binomial(m_r, a_r, b_r) probabilities of 0..m_r in row r, zero
    beyond m_r, built from the ratios
    p(x+1) / p(x) = (m - x)(x + a) / ((x + 1)(m - 1 - x + b)) in log space."""
    m, a, b = m[:, None], a[:, None], b[:, None]
    x = np.arange(m.max())
    p = np.zeros((len(m), x.size + 1))
    log_ratio, work = p[:, 1:], np.empty((len(m), x.size))  # in place: a study's largest arrays
    np.subtract(m, x, out=log_ratio)
    log_ratio *= np.add(x, a, out=work)
    np.subtract(m - 1, x, out=work)
    work += b
    work *= x + 1
    with np.errstate(divide="ignore", invalid="ignore"):  # only where x >= m, reset below
        log_ratio /= work
        np.log(log_ratio, out=log_ratio)
    log_ratio[x >= m] = -np.inf
    np.cumsum(log_ratio, axis=1, out=log_ratio)
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _fft_size(width: int) -> int:
    """The smallest 2^i 3^j 5^k at least ``width``: FFTs of these sizes are
    fast, and they pad a convolution far less than powers of 2 alone."""
    size = 1 << (width - 1).bit_length()
    five = 1
    while five < size:
        odd = five
        while odd < size:  # odd = 3^j 5^k, times the least power of 2 reaching width
            size = min(size, odd << ((width - 1) // odd).bit_length())
            odd *= 3
        five *= 5
    return size


def _check_prior(n_arms: int, prior: PriorSpec) -> None:
    if prior.alpha.shape != (n_arms,):
        raise ValueError(f"prior is for {prior.alpha.shape[0]} arms, data has {n_arms}")
