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

Before any transform, each arm's law loses the tail entries whose
cumulative mass lies below ``TRIM`` times the tail probability its bound
is compared with.  At K <= 2, in a call with at least as many rows as
arms (a coverage case, not one dataset's effects), the one stage then
convolves on a circle rather than over the whole trimmed support: a
Chernoff bound on each row's untrimmed law sizes a window that leaves
out less than that same cut at each end, and each arm's law is placed
on the circle so that the window's cells come out of the inverse
transform in order.  Mass beyond the window wraps onto it.  For a
balanced coverage case the window is 864 cells where the linear stage
takes 1,800.  Where the window would be no smaller, the stage keeps the
linear layout.  Trim and window together move any CDF value of tau_l by
at most (J + 1) * TRIM times those probabilities, less than the
round-off of the convolution itself, so a bound moves only if the
untrimmed CDF is that close to its threshold; the test suite finds no
such case in 3,000 random datasets, nor on windows over 300 more.
``predictive_pmf`` trims nothing and uses no window.
"""

from __future__ import annotations

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

# Tail tolerance of the exact interval.  Before any convolution each arm's
# pmf, oriented by the sign of its contrast, drops its leading entries
# whose cumulative mass is below TRIM * (1 - level) / 2 and its trailing
# entries below TRIM * (1 - (1 + level) / 2): mass a factor 1e15 below
# the tail probability each bound is compared with.  At K <= 2 the
# circular window of the convolution leaves out less than the same cuts.
TRIM = 1e-15

# Cell budget of one row chunk of exact_bounds: rows x the laws x the
# padded lattice size of the widest convolution stage.  A chunk holds a few
# arrays of this many float64 cells (64 KiB each).  A balanced coverage
# case has one four-way stage on a circular window of 864 cells, so 9 rows
# a chunk.  With the linear stage of 1,800 cells (4 rows a chunk), budgets
# up to 2^16 ran it at most about 10% faster, and from 2^14 on they raised
# the peak memory of a 4-case study by 1 MB or more.
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
    p_prime = (obs.n_obs + prior.alpha) / (obs.n + prior.alpha + prior.beta)
    totals = obs.n_obs + (obs.n_units - obs.n) * p_prime
    return float(lattice_step(obs.k, obs.n_units) * (matrix.entries[:, l] @ totals))


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
    over the full support: nothing is trimmed.
    """
    check_matrix(matrix, obs.k)
    check_effect(l, obs.n_arms)
    _check_prior(obs.n_arms, prior)
    signs = matrix.entries[:, l]
    [(_, offsets, pmfs)] = _effect_laws(obs.n, obs.n_obs[None], signs, prior, (0.0, 0.0))
    return int(offsets[0]), pmfs[0]


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
    return [
        IntervalReport(
            effect=l,
            point=posterior_mean(obs, matrix, l, prior),
            variance=variance,
            lower=low,
            upper=high,
            level=level,
            method="bayes-indep",
        )
        for l, low, high in zip(effects, (step * lower).tolist(), (step * upper).tolist())
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
    for rows, offsets, pmfs in _effect_laws(
        n, counts, signs, prior, (TRIM * tails[0], TRIM * tails[1])
    ):
        # CDF(i) >= q is tested as P(X <= i) >= q for the lower bound and as
        # P(X > i) <= 1 - q for the upper one, each tail summed from its own
        # end.  Past its support a row's law is 0, which neither test counts.
        lower[rows] = offsets + (np.cumsum(pmfs, axis=1) < tails[0]).sum(axis=1)
        at_least = np.cumsum(pmfs[:, ::-1], axis=1)[:, ::-1]  # P(X >= i)
        upper[rows] = offsets + (at_least[:, 1:] > tails[1]).sum(axis=1)
    # the upper quantile is never below the lower one, but near the median
    # the two tail sums can disagree by one step of round-off at tiny levels
    return lower, np.maximum(upper, lower)


def _effect_laws(n, counts, signs, prior, cuts):
    """Exact laws of sum_j h_rj (n_rj^obs + B_j), one per row r of the
    (R, J) ``counts`` and of the contrast ``signs``, which broadcast to
    (R, J): one (J,) row serves every dataset.  They are yielded in row
    chunks as ``(rows, offsets, pmfs)``: row r's value ``offsets[r] + i``
    has probability ``pmfs[r, i]``, and 0 past its support.

    Each arm's law is built, oriented, trimmed by ``cuts`` (see ``TRIM``)
    and Fourier-transformed once per distinct (count, sign) of that arm, at
    the size of the first stage.  The J = 2^K laws are then convolved in
    floor(K/2) stages of four, then one of two when K is odd.  A stage
    multiplies the spectra of each group of its laws, taken at its own
    padded size, and makes one inverse transform; it keeps its laws zero
    past their widths, so the next stage takes one forward transform of
    them.  The first stage multiplies the spectra gathered by each row's
    counts and signs.  Rows go through the stages ``CHUNK_CELLS`` cells at
    a time.  When there is one stage and there are no fewer rows than
    arms, it runs on the circular window of ``_window`` if that is
    smaller: each row's ``pmfs`` then cover the window, its far tails
    wrapped onto it.
    """
    n_units = int(n.sum())
    missing = n_units - n
    points = int(missing.sum()) + 1  # the values of each row's sum
    check_lattice(points)
    signs = np.broadcast_to(signs, counts.shape)
    # where h_j = -1 the law enters reversed: m_j - B_j ~ Beta-Binomial(m_j, b, a)
    flipped = signs < 0
    offsets = (counts * signs).sum(axis=1) - (missing * flipped).sum(axis=1)
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
    pmfs = _beta_binomial(missing[arm], a, b)
    # per arm and sign (group 2j or 2j + 1), the leading and trailing entries
    # every one of its laws drops
    starts = np.searchsorted(2 * arm + reverse, np.arange(2 * n.size + 1))
    used = np.flatnonzero(starts[1:] > starts[:-1])
    first, ends = starts[used], starts[used + 1]  # group g's laws are rows first_g:ends_g
    lead, trail = np.zeros((2, 2 * n.size), dtype=np.int64)
    lead[used] = np.minimum.reduceat((np.cumsum(pmfs, axis=1) < cuts[0]).sum(axis=1), first)
    trail[used] = np.minimum.reduceat(
        (np.cumsum(pmfs[:, ::-1], axis=1) < cuts[1]).sum(axis=1), first
    )
    # zero padding is no support
    widths = np.minimum(np.repeat(missing, 2) + 1, pmfs.shape[1] - trail) - lead
    slots = 2 * np.arange(n.size) + flipped  # each row's group of each arm
    offsets += lead[slots].sum(axis=1)
    spans = widths[slots]
    # per stage: its fan-in, padded size and the widths of its laws
    stages = []
    k = n.size.bit_length() - 1
    for fan_in in [4] * (k // 2) + [2] * (k % 2):
        spans = spans.reshape(len(spans), -1, fan_in).sum(axis=2) - (fan_in - 1)
        size = _fft_size(int(spans.max()))
        stages.append((fan_in, size, spans))
    top = int(spans.max())  # the widest law of effect values, zero past each row's width
    windows = np.zeros((len(distinct), widths[used].max()))
    for lo, hi, start, width in zip(*(v.tolist() for v in (first, ends, lead[used], widths[used]))):
        windows[lo:hi, :width] = pmfs[lo:hi, start : start + width]
    # one stage may run on a circular window, unless the call has fewer rows
    # than arms: sizing the window costs about what it saves on 3 or 4 rows,
    # and one dataset's effects (analyze) are fewer rows than arms.  starts:
    # each row's value at cell 0, counted as its trimmed support counts it
    window, starts = None, np.zeros(len(counts), dtype=np.int64)
    if len(stages) == 1 and len(counts) >= n.size:
        window = _window(pmfs, lead[2 * arm + reverse], arm, index, points, cuts, size)
    del pmfs
    if window is not None:  # one stage, on a circular window of each row's law
        top, shifts, starts = window
        offsets += starts
        stages = [(fan_in, top, spans)]
        windows = _wrap(windows, shifts, top)
    spectra = np.fft.rfft(windows, stages[0][1])
    del windows
    chunk = max(1, CHUNK_CELLS // max(size * spans.shape[1] for _, size, spans in stages))
    for start in range(0, len(counts), chunk):
        rows = slice(start, start + chunk)
        for stage, (fan_in, size, spans) in enumerate(stages):
            if stage:  # the product overwrites the chunk's own transform of the laws
                transform = np.fft.rfft(laws, size)
                product = transform[:, 0::fan_in]
                for i in range(1, fan_in):
                    product *= transform[:, i::fan_in]
                del transform
            else:  # each row's arm spectra, gathered by its index one factor at a time
                product = spectra[index[rows, 0::fan_in]]
                for i in range(1, fan_in):
                    product *= spectra[index[rows, i::fan_in]]
                if start + chunk >= len(counts):
                    del spectra  # the last chunk has gathered its transforms
            laws = np.fft.irfft(product, size)
            del product  # products and transforms are the largest arrays here
            np.maximum(laws, 0.0, out=laws)  # round-off leaves tiny negatives in the tails
            # past each law's support lies only round-off; first: each row's cell of value 0
            cells, first = np.arange(size), -starts[rows, None, None]
            laws *= (cells >= first) & (cells < first + spans[rows, :, None])
            del cells  # as long as a law: not kept into the next stage's transforms
        yield rows, offsets[rows], laws[:, 0, :top]


def _window(pmfs, leads, arm, index, support, cuts, linear_size):
    """A circular window that holds each row's law but for less than
    ``cuts`` of its untrimmed mass at each end, or None where it would not
    be smaller than ``linear_size``: ``(size, shifts, starts)``.

    Row r takes the distinct law ``index[r, j]`` of arm j.  Law l has the
    untrimmed probabilities ``pmfs[l]`` at x = 0, 1, ..., whose trimmed
    window starts at ``leads[l]``, a rounded mean c_l and a log-MGF
    L_l(theta) about c_l.  A row's sum X of the x takes the values
    0..``support`` - 1, and with C the sum of its c_l the Chernoff bound
    puts at most exp(sum_j L_j(theta) - theta t) of its mass at X >= C + t,
    and likewise below; the trimmed laws, which never exceed the untrimmed
    ones, have no more.  So each row keeps all but less than the cut at
    each end in the values C - h .. C - h + size - 1, which the inverse
    transform gives in cells 0..size - 1 once entry x of law l sits in
    cell (x - c_l + s_j) mod size, where the s_j of a row's arms sum to h
    (s_0 = h, every other s_j = 0).  ``shifts`` are where each trimmed
    window's first entry goes, and ``starts`` are each row's C - h minus
    the sum of its leads: the value of cell 0 counted as the trimmed
    supports count it.
    """
    x = np.arange(pmfs.shape[1])
    centers = np.rint(pmfs @ x).astype(np.int64)
    # a geometric grid, theta * x within 256 of 0: far from exp's overflow at 709
    theta = 256.0 / x[-1] * 2.0 ** (-np.arange(17) / 2.0)
    theta = np.concatenate((theta, -theta))  # the upper end, then the lower end
    log_mgf = np.log(pmfs @ np.exp(np.multiply.outer(x, theta)))
    log_mgf -= np.multiply.outer(centers, theta)
    log_cuts = np.log(np.repeat(cuts[::-1], len(theta) // 2))
    # the least t with exp(sum_j L_j(theta) - |theta| t) < cut, at the best theta
    reach = (np.floor((log_mgf[index].sum(axis=1) - log_cuts) / np.abs(theta)) + 1).reshape(
        len(index), 2, -1
    ).min(axis=2)
    row_centers = centers[index].sum(axis=1)
    low = int(np.minimum(reach[:, 1] - 1, row_centers).max())
    high = int(np.minimum(reach[:, 0], support - row_centers).max())
    size = _fft_size(low + high)
    if size >= linear_size:
        return None
    shifts = leads - centers + np.where(arm == 0, low, 0)
    return size, shifts, row_centers - low - leads[index].sum(axis=1)


def _wrap(windows, shifts, size):
    """Each row of ``windows`` shifted by ``shifts`` and wrapped onto
    ``size`` cells: entry x of row l lands in cell (x + shifts[l]) mod size."""
    if windows.shape[1] > size:  # fold the law onto the circle first
        windows = np.pad(windows, ((0, 0), (0, -windows.shape[1] % size)))
        windows = windows.reshape(len(windows), -1, size).sum(axis=1)
    width = windows.shape[1]
    wrapped = np.zeros((len(windows), size))
    for row, law, shift in zip(wrapped, windows, (shifts % size).tolist()):
        split = min(width, size - shift)  # the entries that land before the end
        row[shift : shift + split] = law[:split]
        row[: width - split] = law[split:]
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
