import math
import re

import numpy as np
import pytest

from factorial2k import ObservedData, bayes
from factorial2k.bayes import (
    CHUNK_CELLS,
    MAX_PRIOR,
    PriorSpec,
    credible_interval,
    draw_effect,
    draw_marginals,
    exact_bounds,
    exact_interval,
    exact_intervals,
    posterior_mean,
    posterior_variance,
    predictive_pmf,
    TRIM,
    _effect_laws,
    _wrap,
)
from factorial2k.assignment import replication_counts
from factorial2k.data import data_path
from factorial2k.design import build_model_matrix, lattice_step
from factorial2k.harness import StudyConfig, resolve_cases
from factorial2k.neyman import point_estimate

from helpers import ZERO_TAIL, pmf_quantiles, random_observed


def mc_se_mean(values):
    return values.std() / np.sqrt(values.size)


def mc_se_variance(values):
    """Standard error of the sample variance via the fourth central moment."""
    centered = values - values.mean()
    m2 = (centered**2).mean()
    m4 = (centered**4).mean()
    return np.sqrt(max(m4 - m2**2, 0.0) / values.size)


class TestPriorSpec:
    def test_uniform(self):
        prior = PriorSpec.uniform(4)
        assert prior.alpha.tolist() == [1, 1, 1, 1]
        assert prior.beta.tolist() == [1, 1, 1, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PriorSpec(alpha=np.array([1.0, 0.0]), beta=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="Beta prior hyperparameters must be finite"):
            PriorSpec(alpha=np.array([1.0, bad]), beta=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="Beta prior hyperparameters must be finite"):
            PriorSpec(alpha=np.array([1.0, 1.0]), beta=np.array([bad, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PriorSpec(alpha=np.ones(4), beta=np.ones(3))

    @pytest.mark.parametrize("huge", [1e307, float(np.nextafter(MAX_PRIOR, np.inf))])
    def test_rejects_hyperparameters_past_the_bound(self, huge):
        with pytest.raises(ValueError, match=r"must not exceed 1e\+300, got alpha=\[1.0, "):
            PriorSpec(alpha=np.array([1.0, huge]), beta=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match=r"must not exceed 1e\+300, got .*beta=\[1.0, "):
            PriorSpec(alpha=np.array([1.0, 1.0]), beta=np.array([1.0, huge]))

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_prior_at_the_bound_gives_the_point_mass_at_the_mean(self, trial_obs, h2, side):
        """A Beta(MAX_PRIOR, 1) prior (or Beta(1, MAX_PRIOR)) makes every
        missing outcome a success (a failure): tau_l is the one lattice value
        at its mean, and building its law must not overflow (warnings are
        errors here)."""
        huge = np.full(4, MAX_PRIOR)
        prior = PriorSpec(alpha=huge, beta=np.ones(4)) if side == "alpha" else PriorSpec(
            alpha=np.ones(4), beta=huge
        )
        for report in exact_intervals(trial_obs, h2, [1, 2, 3], prior, 0.95):
            assert report.lower == report.upper == pytest.approx(report.point, abs=1e-12)


class TestDrawMarginals:
    def test_posterior_moments_balanced(self):
        obs = ObservedData(k=2, n=np.full(4, 200), n_obs=np.full(4, 100))
        rng = np.random.default_rng(8)
        pi = draw_marginals(obs, PriorSpec.uniform(4), rng, draws=100_000)
        mean = 101 / 202
        variance = mean * (1 - mean) / 203  # Beta(101, 101) posterior
        for j in range(4):
            column = pi[:, j]
            assert abs(column.mean() - mean) <= 4 * mc_se_mean(column)
            assert abs(column.var() - variance) <= 4 * mc_se_variance(column)

    def test_all_successes_concentrate_near_one(self):
        obs = ObservedData(k=2, n=np.full(4, 50), n_obs=np.full(4, 50))
        rng = np.random.default_rng(9)
        pi = draw_marginals(obs, PriorSpec.uniform(4), rng, draws=100_000)
        for j in range(4):
            column = pi[:, j]
            assert abs(column.mean() - 51 / 52) <= 4 * mc_se_mean(column)

    def test_degenerate_prior_limit(self):
        obs = ObservedData(k=2, n=np.full(4, 2), n_obs=np.zeros(4, dtype=int))
        prior = PriorSpec(alpha=np.full(4, 1e-6), beta=np.full(4, 1e-6))
        rng = np.random.default_rng(10)
        pi = draw_marginals(obs, prior, rng, draws=100_000)
        assert pi.mean() == pytest.approx(0.0, abs=1e-5)


class TestDrawEffect:
    def test_certain_success_imputation_nulls_contrasts(self, h2):
        # all observed outcomes are successes and pi = 1 everywhere, so every
        # arm total is N and every contrast collapses to zero
        obs = ObservedData(k=2, n=np.array([3, 4, 5, 8]), n_obs=np.array([3, 4, 5, 8]))
        pi = np.ones((100, 4))
        rng = np.random.default_rng(11)
        for l in (1, 2, 3):
            values = draw_effect(obs, h2, l, pi, rng)
            np.testing.assert_allclose(values, 0.0, atol=1e-15)

    def test_certain_failure_gives_zero(self, h2):
        obs = ObservedData(k=2, n=np.array([3, 4, 5, 8]), n_obs=np.zeros(4, dtype=int))
        pi = np.zeros((100, 4))
        values = draw_effect(obs, h2, 1, pi, np.random.default_rng(12))
        np.testing.assert_allclose(values, 0.0, atol=1e-15)

    def test_mean_at_observed_rates_matches_point_estimate(self, trial_obs, h2):
        pi = np.tile(trial_obs.p_hat, (100_000, 1))
        values = draw_effect(trial_obs, h2, 2, pi, np.random.default_rng(13))
        target = point_estimate(trial_obs, h2, 2)
        assert abs(values.mean() - target) <= 4 * mc_se_mean(values)

    def test_draws_bounded_by_one(self, h2):
        rng = np.random.default_rng(14)
        for _ in range(5):
            obs = random_observed(rng)
            prior = PriorSpec.uniform(4)
            pi = draw_marginals(obs, prior, rng, draws=20_000)
            for l in (1, 2, 3):
                values = draw_effect(obs, h2, l, pi, rng)
                assert (np.abs(values) <= 1.0 + 1e-12).all()


class TestClosedForms:
    def test_symmetric_toy_mean_is_zero(self, h2):
        obs = ObservedData(k=2, n=np.full(4, 2), n_obs=np.full(4, 1))
        for l in (1, 2, 3):
            assert posterior_mean(obs, h2, l, PriorSpec.uniform(4)) == pytest.approx(
                0.0, abs=1e-15
            )

    def test_trial_mean_near_point_estimate(self, trial_obs, h2):
        mean = posterior_mean(trial_obs, h2, 2, PriorSpec.uniform(4))
        assert mean == pytest.approx(0.0824, abs=2e-3)

    def test_symmetric_toy_variance(self):
        obs = ObservedData(k=2, n=np.full(4, 2), n_obs=np.full(4, 1))
        assert posterior_variance(obs, PriorSpec.uniform(4)) == pytest.approx(
            0.046875, abs=1e-15
        )

    def test_no_successes_tiny_prior_variance_positive(self):
        obs = ObservedData(k=2, n=np.full(4, 20), n_obs=np.zeros(4, dtype=int))
        prior = PriorSpec(alpha=np.full(4, 1e-4), beta=np.full(4, 1e-4))
        variance = posterior_variance(obs, prior)
        assert 0.0 < variance < 1e-5

    def test_composed_draws_match_closed_forms(self, trial_obs, h2):
        """Monte Carlo mean/variance of the two-step sampler must agree
        with the closed forms; the acceptance suite repeats this over 20
        random datasets at a million draws."""
        prior = PriorSpec.uniform(4)
        rng = np.random.default_rng(15)
        pi = draw_marginals(trial_obs, prior, rng, draws=200_000)
        values = draw_effect(trial_obs, h2, 2, pi, rng)
        mean = posterior_mean(trial_obs, h2, 2, prior)
        variance = posterior_variance(trial_obs, prior)
        assert abs(values.mean() - mean) <= 4 * mc_se_mean(values)
        assert abs(values.var() - variance) <= 4 * mc_se_variance(values)


class TestLargeSampleBehaviour:
    def test_posterior_mean_close_to_point_estimate_for_large_arms(self, h2):
        rng = np.random.default_rng(16)
        prior = PriorSpec.uniform(4)
        for _ in range(20):
            obs = random_observed(rng, min_n=200, max_n=400)
            bound = 2 * 2.0 / obs.n.min()  # 2(alpha+beta)/min n_j
            for l in (1, 2, 3):
                gap = abs(posterior_mean(obs, h2, l, prior) - point_estimate(obs, h2, l))
                assert gap <= bound

    def test_variance_ratio_tends_to_one(self):
        prior = PriorSpec.uniform(4)
        rng = np.random.default_rng(17)
        gaps = []
        for scale in (200, 2000, 20000):
            n = np.full(4, scale)
            n_obs = rng.binomial(n, 0.4)
            obs = ObservedData(k=2, n=n, n_obs=n_obs)
            # the large-sample limit, prior washed out, as criterion 8 writes it
            p = obs.p_hat
            large_n = 4.0 ** -(obs.k - 1) * ((1.0 - n / n.sum()) * p * (1.0 - p) / (n - 1)).sum()
            ratio = posterior_variance(obs, prior) / large_n
            gaps.append(abs(ratio - 1.0))
        assert gaps[0] < 0.05
        assert gaps[2] < gaps[0]
        assert gaps[2] < 5e-4


class TestCredibleInterval:
    def test_requires_minimum_draws(self, trial_obs, h2):
        with pytest.raises(ValueError):
            credible_interval(
                trial_obs, h2, 2, PriorSpec.uniform(4), 999, 0.95, np.random.default_rng(0)
            )

    def test_trial_interval(self, trial_obs, h2):
        report = credible_interval(
            trial_obs, h2, 2, PriorSpec.uniform(4), 50_000, 0.95,
            np.random.default_rng(19),
        )
        assert report.lower == pytest.approx(0.041, abs=5e-3)
        assert report.upper == pytest.approx(0.123, abs=5e-3)
        assert report.method == "bayes-indep"
        assert report.mc_draws == 50_000

    def test_posterior_concentration_shrinks_width(self, h2):
        obs = ObservedData(k=2, n=np.full(4, 5000), n_obs=np.full(4, 5000))
        prior = PriorSpec(alpha=np.full(4, 1e-6), beta=np.full(4, 1e-6))
        report = credible_interval(obs, h2, 1, prior, 10_000, 0.95, np.random.default_rng(20))
        assert report.width < 2e-3

    def test_narrower_level_nested(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        wide = credible_interval(trial_obs, h2, 2, prior, 20_000, 0.95, np.random.default_rng(21))
        narrow = credible_interval(trial_obs, h2, 2, prior, 20_000, 0.50, np.random.default_rng(21))
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper


def lgamma_arm_pmf(m, a, b):
    """Beta-Binomial(m, a, b) probabilities of 0..m from math.lgamma."""
    return np.array([
        math.exp(
            math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1)
            + math.lgamma(x + a) + math.lgamma(m - x + b) - math.lgamma(m + a + b)
            + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        )
        for x in range(m + 1)
    ])


def lgamma_effect_pmf(obs, matrix, l, prior):
    """Reference law of effect l: Beta-Binomial pmfs from math.lgamma,
    convolved one arm at a time; returns (offset, pmf) like predictive_pmf."""
    signs = matrix.entries[:, l]
    offset = 0
    pmf = np.ones(1)
    for sign, size, successes, a, b in zip(signs, obs.n, obs.n_obs, prior.alpha, prior.beta):
        m = obs.n_units - int(size)
        arm = lgamma_arm_pmf(m, a + successes, b + size - successes)
        offset += int(sign) * int(successes)
        if sign < 0:
            arm = arm[::-1]
            offset -= m
        pmf = np.convolve(pmf, arm)
    return offset, pmf


def pmf_moments(obs, offset, pmf):
    values = lattice_step(obs.k, obs.n_units) * (offset + np.arange(pmf.size))
    mean = pmf @ values
    return mean, pmf @ (values - mean) ** 2


def random_prior(rng, k):
    return PriorSpec(alpha=rng.uniform(0.2, 3.0, size=2**k), beta=rng.uniform(0.2, 3.0, size=2**k))


def random_datasets(seed, count=40, k=None, max_n=40):
    """Random datasets at the given K, or at K drawn from 1..3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k_r = k or int(rng.integers(1, 4))
        obs = random_observed(rng, k=k_r, min_n=2, max_n=max_n)
        yield obs, build_model_matrix(k_r), random_prior(rng, k_r)


class TestPredictivePmf:
    def test_sums_to_one(self, trial_obs, h2):
        for l in (1, 2, 3):
            _, pmf = predictive_pmf(trial_obs, h2, l, PriorSpec.uniform(4))
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pmf >= 0).all()

    def test_matches_lgamma_convolution(self, trial_obs, h2):
        """Also at K = 4 (stages of 4 and 4 laws) and K = 5 (4, 4 and 2),
        on small arms."""
        cases = [
            (trial_obs, h2, PriorSpec.uniform(4)),
            *random_datasets(30, count=10),
            *random_datasets(36, count=2, k=4, max_n=6),
            *random_datasets(37, count=2, k=5, max_n=4),
        ]
        for obs, matrix, prior in cases:
            for l in range(1, obs.n_arms):
                offset, pmf = predictive_pmf(obs, matrix, l, prior)
                ref_offset, ref_pmf = lgamma_effect_pmf(obs, matrix, l, prior)
                assert offset == ref_offset
                assert pmf.shape == ref_pmf.shape
                assert np.abs(pmf - ref_pmf).max() < 1e-12

    def test_moments_match_closed_forms(self, trial_obs, h2):
        """Mean to 1e-12 of the posterior sd or of the mean, whichever is
        larger (a mean near zero has no relative scale of its own);
        variance to 1e-12 relative."""
        cases = [(trial_obs, h2, PriorSpec.uniform(4))] + list(random_datasets(31))
        for obs, matrix, prior in cases:
            variance = posterior_variance(obs, prior)
            for l in range(1, obs.n_arms):
                mean, pmf_variance = pmf_moments(obs, *predictive_pmf(obs, matrix, l, prior))
                expected = posterior_mean(obs, matrix, l, prior)
                assert abs(mean - expected) <= 1e-12 * max(abs(expected), math.sqrt(variance))
                assert pmf_variance == pytest.approx(variance, rel=1e-12)


class TestExactInterval:
    def test_trial_interval(self, trial_obs, h2):
        report = exact_interval(trial_obs, h2, 2, PriorSpec.uniform(4), 0.95)
        assert (f"{report.lower:.6g}", f"{report.upper:.6g}") == ("0.0410596", "0.123179")
        assert report.method == "bayes-indep"
        assert report.mc_draws is None
        assert report.point == posterior_mean(trial_obs, h2, 2, PriorSpec.uniform(4))
        assert report.variance == posterior_variance(trial_obs, PriorSpec.uniform(4))

    def test_endpoints_are_exact_quantiles_on_the_lattice(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        for obs, matrix, prior in [(trial_obs, h2, prior), *random_datasets(32, count=10)]:
            step = lattice_step(obs.k, obs.n_units)
            for l in range(1, obs.n_arms):
                offset, pmf = predictive_pmf(obs, matrix, l, prior)
                report = exact_interval(obs, matrix, l, prior, 0.9)
                lower, upper = (round(v / step) - offset for v in (report.lower, report.upper))
                assert (report.lower, report.upper) == (step * (offset + lower), step * (offset + upper))
                assert 0 <= lower <= upper < pmf.size
                # smallest i with P(X <= i) >= 0.05, and with P(X > i) <= 0.05
                assert math.fsum(pmf[: lower + 1]) >= 0.05 > math.fsum(pmf[:lower])
                assert math.fsum(pmf[upper + 1 :]) <= 1.0 - 0.95 < math.fsum(pmf[upper:])

    def test_tail_rounding_to_one_is_refused(self, trial_obs, h2):
        level = float(np.nextafter(1.0, 0.0))
        assert (1.0 + level) / 2.0 == 1.0
        with pytest.raises(ValueError, match=ZERO_TAIL):
            exact_interval(trial_obs, h2, 2, PriorSpec.uniform(4), level)

    def test_tail_rounding_to_one_is_refused_on_random_datasets(self):
        level = float(np.nextafter(1.0, 0.0))
        for obs, matrix, prior in random_datasets(34, count=20):
            for l in range(1, obs.n_arms):
                with pytest.raises(ValueError, match=ZERO_TAIL):
                    exact_interval(obs, matrix, l, prior, level)

    def test_agrees_with_monte_carlo(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        exact = exact_interval(trial_obs, h2, 2, prior, 0.95)
        sampled = credible_interval(trial_obs, h2, 2, prior, 200_000, 0.95, np.random.default_rng(22))
        step = lattice_step(2, trial_obs.n_units)
        assert abs(exact.lower - sampled.lower) <= 2 * step
        assert abs(exact.upper - sampled.upper) <= 2 * step

    def test_narrower_level_nested(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        wide = exact_interval(trial_obs, h2, 2, prior, 0.95)
        narrow = exact_interval(trial_obs, h2, 2, prior, 0.50)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper


class TestExactBounds:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("budget", [1, CHUNK_CELLS])
    def test_rows_equal_their_exact_intervals(self, monkeypatch, k, budget):
        """Each row of a batch gets the bounds of ``exact_interval`` on that
        row alone, whichever chunk it falls in (one row per chunk at a
        budget of 1)."""
        monkeypatch.setattr(bayes, "CHUNK_CELLS", budget)
        rng = np.random.default_rng(40 + k)
        j = 2**k
        n = rng.integers(2, 40 if k < 4 else 8, size=j)
        counts = rng.binomial(n, rng.uniform(0.05, 0.95, size=j), size=(30, j))
        matrix, prior = build_model_matrix(k), random_prior(rng, k)
        for l in (1, j - 1):
            lower, upper = exact_bounds(n, counts, matrix, l, prior, 0.9)
            for row, bounds in zip(counts, zip(lower.tolist(), upper.tolist())):
                report = exact_interval(ObservedData(k=k, n=n, n_obs=row), matrix, l, prior, 0.9)
                assert (report.lower, report.upper) == bounds

    @pytest.mark.parametrize("bad", [11, -1])
    def test_rejects_counts_outside_their_arms(self, h2, bad):
        n, counts = np.full(4, 10), np.array([[1, 2, 3, 4], [5, 6, bad, 7], [bad, 0, 0, 0]])
        with pytest.raises(ValueError, match=rf"^success counts: row 1 is \[5, 6, {bad}, 7\]; "):
            exact_bounds(n, counts, h2, 1, PriorSpec.uniform(4), 0.95)

    def test_rejects_a_wrong_arm_count(self, h2):
        prior = PriorSpec.uniform(4)
        with pytest.raises(ValueError, match=r"^expected 4 arm sizes, got 3$"):
            exact_bounds(np.full(3, 10), np.ones((2, 3), dtype=int), h2, 1, prior, 0.95)
        for counts in (np.ones((2, 3), dtype=int), np.ones(4, dtype=int)):
            message = f"success counts must form an (R, 4) array, got shape {counts.shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                exact_bounds(np.full(4, 10), counts, h2, 1, prior, 0.95)

    def test_float_counts_must_be_whole(self, h2):
        n, prior = np.full(4, 10), PriorSpec.uniform(4)
        counts = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        for bad in (2.5, float("nan"), float("inf")):
            floats = counts.astype(float)
            floats[1, 2] = bad
            with pytest.raises(ValueError, match=f"^success counts: {bad} is not a whole number$"):
                exact_bounds(n, floats, h2, 1, prior, 0.95)
        whole = exact_bounds(n, counts.astype(float), h2, 1, prior, 0.95)
        ints = exact_bounds(n, counts, h2, 1, prior, 0.95)
        assert [b.tolist() for b in whole] == [b.tolist() for b in ints]
        with pytest.raises(ValueError, match="^success counts: False is not a whole number$"):
            exact_bounds(n, counts > 2, h2, 1, prior, 0.95)


class TestTinyLevels:
    """At levels far below 1e-15 both bounds sit at the median, where the
    two tail sums can disagree by one lattice step of round-off; the upper
    bound is then raised to the lower one, never left below it."""

    LEVELS = (1e-300, 1e-17, 1e-16, 2.3e-16)

    def test_upper_bound_is_raised_to_the_lower_one(self):
        prior = PriorSpec(alpha=[1, 4], beta=[1, 1])
        lower, upper = exact_bounds([2, 3], [[1, 0]], build_model_matrix(1), 1, prior, 1e-17)
        assert (lower.tolist(), upper.tolist()) == ([-0.2], [-0.2])

    @pytest.mark.parametrize("level", LEVELS)
    def test_symmetric_laws_of_unequal_parity(self, level):
        """K = 1 with arm sizes of unequal parity, and priors that make each
        arm's law symmetric (alpha_j + n_obs_j = beta_j + n_j - n_obs_j): the
        law of the effect is symmetric about a point midway between two
        lattice values, so its median CDF is 1/2 up to round-off."""
        h1 = build_model_matrix(1)
        for n1 in range(2, 9):
            for n2 in range(3 - n1 % 2, 9, 2):
                n = np.array([n1, n2])
                for row in np.ndindex(n1 + 1, n2 + 1):
                    gap = n - 2 * np.array(row)  # alpha_j - beta_j
                    prior = PriorSpec(alpha=1 + np.maximum(gap, 0), beta=1 + np.maximum(-gap, 0))
                    lower, upper = exact_bounds(n, [row], h1, 1, prior, level)
                    assert lower[0] <= upper[0], (n, row)
                    obs = ObservedData(k=1, n=n, n_obs=row)
                    [report] = exact_intervals(obs, h1, [1], prior, level)
                    assert report.lower <= report.upper, (n, row)


class TestCircularWindow:
    """Every stage of every exact call convolves on a circular window that
    holds each row's law but for less than the cut of its untrimmed mass at
    each end (see ``_effect_laws``)."""

    @staticmethod
    def trimmed_span(n, counts, signs, prior, cuts):
        """The width of the sum of the arms' trimmed supports over the rows
        of ``counts``: each arm's law, oriented by its sign, drops the
        leading entries whose cumulative mass is below ``cuts[0]`` and the
        trailing ones below ``cuts[1]``, as few as any of its rows drops."""
        span = 1
        for j, (size, sign) in enumerate(zip(n.tolist(), signs.tolist())):
            m = int(n.sum()) - size
            laws = [
                lgamma_arm_pmf(m, prior.alpha[j] + c, prior.beta[j] + size - c)[::sign]
                for c in set(counts[:, j].tolist())
            ]
            lead = min(np.count_nonzero(np.cumsum(law) < cuts[0]) for law in laws)
            trail = min(np.count_nonzero(np.cumsum(law[::-1]) < cuts[1]) for law in laws)
            span += m - lead - trail
        return span

    @pytest.mark.parametrize("study", ["study_balanced.json", "study_imbalanced.json"])
    def test_coverage_scale_bounds_are_the_untrimmed_quantiles(self, study):
        """The first 50 replications of the study's first case (N = 800),
        as ``coverage_experiment`` draws them, at every effect; the window
        is narrower than the sum of the arms' trimmed supports."""
        config = StudyConfig.from_json(data_path(study))
        case, arms = resolve_cases(config)[0], np.array(config.arms)
        seed_seq = np.random.SeedSequence(config.seed, spawn_key=(case.case_id,))
        counts = replication_counts(case.counts, arms, seed_seq, 50)
        matrix, prior, step = build_model_matrix(2), PriorSpec.uniform(4), lattice_step(2, 800)
        level = config.level
        cuts = (TRIM * (1.0 - level) / 2.0, TRIM * (1.0 - (1.0 + level) / 2.0))
        for l in (1, 2, 3):
            lower, upper = exact_bounds(arms, counts, matrix, l, prior, level)
            for row, low, high in zip(counts, lower.tolist(), upper.tolist()):
                offset, pmf = predictive_pmf(ObservedData(k=2, n=arms, n_obs=row), matrix, l, prior)
                assert (low, high) == pmf_quantiles(offset, pmf, step, level)
            signs = matrix.entries[:, l]
            widths = [law.shape[1] for _, _, law in _effect_laws(arms, counts, signs, prior, cuts)]
            assert max(widths) < self.trimmed_span(arms, counts, signs, prior, cuts)

    def test_untrimmed_mass_outside_the_window_is_below_the_cut(self):
        """On random datasets at K = 1..4 (one stage up to K = 2, two from
        K = 3), each with a second row of other counts, against a direct
        lgamma convolution: the FFT's round-off in predictive_pmf is about
        1e-18 a cell, which adds up past the smaller cuts.  The rows also
        get the untrimmed quantiles."""
        rng = np.random.default_rng(60)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            j = 2**k
            n = rng.integers(2, (401, 401, 61, 16)[k - 1], size=j)
            counts = rng.binomial(n, rng.uniform(0.0, 1.0, size=(2, j)))
            alpha, beta = np.exp(rng.uniform(math.log(0.05), math.log(5.0), size=(2, j)))
            prior, l = PriorSpec(alpha=alpha, beta=beta), int(rng.integers(1, j))
            level = float(rng.choice([0.5, 0.95, 0.999, 1.0 - 1e-9, rng.uniform(0.5, 1.0 - 1e-9)]))
            cuts = (TRIM * (1.0 - level) / 2.0, TRIM * (1.0 - (1.0 + level) / 2.0))
            matrix, step = build_model_matrix(k), lattice_step(k, int(n.sum()))
            windows = [
                (start, laws.shape[1])
                for _, starts, laws in _effect_laws(n, counts, matrix.entries[:, l], prior, cuts)
                for start in starts.tolist()
            ]
            bounds = zip(*(b.tolist() for b in exact_bounds(n, counts, matrix, l, prior, level)))
            for row, (start, width), (low, high) in zip(counts, windows, bounds):
                offset, pmf = lgamma_effect_pmf(ObservedData(k=k, n=n, n_obs=row), matrix, l, prior)
                assert math.fsum(pmf[: max(start - offset, 0)]) <= cuts[0]
                assert math.fsum(pmf[max(start + width - offset, 0) :]) <= cuts[1]
                assert (low, high) == pmf_quantiles(offset, pmf, step, level)

    @pytest.mark.parametrize("k, max_n", [(6, 4), (7, 3)])
    def test_bounds_at_high_k_are_the_untrimmed_quantiles(self, k, max_n):
        """Three and four stages on small arms, against a direct lgamma
        convolution."""
        for obs, matrix, prior in random_datasets(64 + k, count=2, k=k, max_n=max_n):
            effects = [1, obs.n_arms - 1, int(obs.n_obs.sum()) % (obs.n_arms - 1) + 1]
            step = lattice_step(k, obs.n_units)
            for l, report in zip(effects, exact_intervals(obs, matrix, effects, prior, 0.95)):
                offset, pmf = lgamma_effect_pmf(obs, matrix, l, prior)
                assert (report.lower, report.upper) == pmf_quantiles(offset, pmf, step, 0.95)

    def test_window_at_k7_is_narrower_than_a_quarter_of_the_lattice(self):
        """128 arms of 100 units: the lattice has 1,625,601 values, and the
        linear stages ran at up to 1,062,882 cells."""
        rng = np.random.default_rng(65)
        n = np.full(128, 100)
        counts = rng.binomial(n, rng.uniform(0.1, 0.6, size=128))[None]
        signs = build_model_matrix(7).entries[:, 1]
        cuts = (TRIM * 0.025, TRIM * 0.025)
        [(_, _, law)] = _effect_laws(n, counts, signs, PriorSpec.uniform(128), cuts)
        assert law.shape[1] < (128 * 12_700 + 1) / 4

    def test_whole_arm_laws_fold_onto_a_narrow_circle(self):
        """Balanced arms of 200 with no, all, alternating and near-zero
        successes: each arm's law covers 601 values, but the circle is
        narrower, so every whole arm law is folded onto it."""
        n, prior = np.full(4, 200), PriorSpec.uniform(4)
        counts = np.array([[0, 0, 0, 0], [200, 200, 200, 200], [0, 200, 0, 200], [1, 0, 2, 0]])
        matrix, step, level = build_model_matrix(2), lattice_step(2, 800), 0.95
        cuts = (TRIM * (1.0 - level) / 2.0, TRIM * (1.0 - (1.0 + level) / 2.0))
        for l in (1, 2, 3):
            signs = matrix.entries[:, l]
            widths = [law.shape[1] for _, _, law in _effect_laws(n, counts, signs, prior, cuts)]
            assert max(widths) < 601
            lower, upper = exact_bounds(n, counts, matrix, l, prior, level)
            for row, low, high in zip(counts, lower.tolist(), upper.tolist()):
                offset, pmf = lgamma_effect_pmf(ObservedData(k=2, n=n, n_obs=row), matrix, l, prior)
                assert (low, high) == pmf_quantiles(offset, pmf, step, level)

    def test_rows_of_their_own_signs(self):
        """Effects asked for twice: a window over rows of their own signs
        and supports."""
        for obs, matrix, prior in random_datasets(63, count=20, k=2, max_n=300):
            effects = [3, 1, 2, 2, 1, 3]
            step = lattice_step(2, obs.n_units)
            for l, report in zip(effects, exact_intervals(obs, matrix, effects, prior, 0.95)):
                offset, pmf = predictive_pmf(obs, matrix, l, prior)
                assert (report.lower, report.upper) == pmf_quantiles(offset, pmf, step, 0.95)

    def test_wrap_folds_laws_wider_than_the_circle(self):
        rng = np.random.default_rng(61)
        windows, shifts = rng.random((5, 23)), rng.integers(-30, 30, size=5)
        for size in (7, 23, 40):
            expected = np.zeros((5, size))
            for law, row, shift in zip(windows, expected, shifts):
                np.add.at(row, (np.arange(23) + shift) % size, law)
            np.testing.assert_allclose(_wrap(windows, shifts, size), expected, rtol=1e-15)


class TestExactIntervals:
    """Every effect of one dataset from one batch, in the order given: the
    same bounds as one ``exact_interval`` call per effect, and as the
    quantiles of the untrimmed ``predictive_pmf``, at every chunk budget."""

    TOP = float(np.nextafter(1.0, 0.0))  # refused: its upper tail 1 - (1 + level) / 2 rounds to 0
    LEVELS = (0.5, 0.95, 0.999, 1.0 - 1e-9, TOP)

    @staticmethod
    def datasets():
        yield from random_datasets(50, count=12, max_n=40)  # K = 1..3
        yield from random_datasets(51, count=3, k=4, max_n=8)
        yield from random_datasets(52, count=2, k=5, max_n=5)

    def check(self, obs, matrix, effects, prior, level):
        """TOP is refused."""
        if level == self.TOP:
            with pytest.raises(ValueError, match=ZERO_TAIL):
                exact_intervals(obs, matrix, effects, prior, level)
            return
        reports = exact_intervals(obs, matrix, effects, prior, level)
        assert [r.effect for r in reports] == effects
        step = lattice_step(obs.k, obs.n_units)
        for l, report in zip(effects, reports):
            single = exact_interval(obs, matrix, l, prior, level)
            offset, pmf = predictive_pmf(obs, matrix, l, prior)
            assert report == single
            assert (report.lower, report.upper) == pmf_quantiles(offset, pmf, step, level)

    @pytest.mark.parametrize("budget", [1, CHUNK_CELLS])
    def test_all_effects_equal_single_calls_and_untrimmed_quantiles(self, monkeypatch, budget):
        monkeypatch.setattr(bayes, "CHUNK_CELLS", budget)
        for obs, matrix, prior in self.datasets():
            for level in self.LEVELS:
                self.check(obs, matrix, list(range(1, obs.n_arms)), prior, level)

    @pytest.mark.parametrize("budget", [1, CHUNK_CELLS])
    def test_effects_out_of_order(self, monkeypatch, trial_obs, h2, budget):
        monkeypatch.setattr(bayes, "CHUNK_CELLS", budget)
        datasets = [(trial_obs, h2, PriorSpec.uniform(4)), *random_datasets(53, count=5, k=3)]
        for obs, matrix, prior in datasets:
            for level in self.LEVELS:
                self.check(obs, matrix, [3, 1], prior, level)

    def test_bounds_of_one_effect_for_many_datasets(self):
        """``exact_bounds`` shares one sign row among its datasets; it too
        gives the untrimmed quantiles at every level, and refuses TOP."""
        rng = np.random.default_rng(54)
        for k in (1, 2, 3):
            j = 2**k
            n = rng.integers(2, 30, size=j)
            counts = rng.binomial(n, rng.uniform(0.05, 0.95, size=j), size=(12, j))
            matrix, prior, step = build_model_matrix(k), random_prior(rng, k), lattice_step(k, n.sum())
            for level in self.LEVELS:
                if level == self.TOP:
                    with pytest.raises(ValueError, match=ZERO_TAIL):
                        exact_bounds(n, counts, matrix, j - 1, prior, level)
                    continue
                lower, upper = exact_bounds(n, counts, matrix, j - 1, prior, level)
                for row, low, high in zip(counts, lower.tolist(), upper.tolist()):
                    obs = ObservedData(k=k, n=n, n_obs=row)
                    offset, pmf = predictive_pmf(obs, matrix, j - 1, prior)
                    assert (low, high) == pmf_quantiles(offset, pmf, step, level)

    def test_points_and_variance_are_the_closed_forms(self):
        for obs, matrix, prior in self.datasets():
            effects = list(range(obs.n_arms - 1, 0, -1))
            for l, report in zip(effects, exact_intervals(obs, matrix, effects, prior, 0.9)):
                assert report.point == posterior_mean(obs, matrix, l, prior)
                assert report.variance == posterior_variance(obs, prior)
                assert (report.level, report.method, report.mc_draws) == (0.9, "bayes-indep", None)

    def test_checks_every_effect(self, trial_obs, h2):
        with pytest.raises(ValueError, match=r"^effect index 4 outside 1..3$"):
            exact_intervals(trial_obs, h2, [1, 4], PriorSpec.uniform(4), 0.95)

    def test_no_rows_give_no_bounds(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        assert exact_intervals(trial_obs, h2, [], prior, 0.95) == []
        lower, upper = exact_bounds(trial_obs.n, np.zeros((0, 4), dtype=np.int64), h2, 1, prior, 0.95)
        assert lower.shape == upper.shape == (0,)


class TestTrimming:
    """The exact interval convolves on circles that leave out less than TRIM
    times the tail probability at each end; its bounds must stay the
    quantiles of the untrimmed law, also for arms with all, none or about 2%
    successes, priors from 0.05 to 5, and levels up to 1 - 1e-9."""

    LEVELS = (0.5, 0.95, 0.999, 1.0 - 1e-9)

    @staticmethod
    def datasets(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            k = int(rng.integers(1, 4))
            j = 2**k
            n = rng.integers(2, 81, size=j)
            near_two_percent = np.rint(0.02 * n).astype(int) + rng.integers(0, 2, size=j)
            n_obs = np.choose(
                rng.integers(0, 4, size=j),
                [np.zeros(j, dtype=int), n, np.minimum(near_two_percent, n), rng.binomial(n, 0.5)],
            )
            alpha, beta = np.exp(rng.uniform(math.log(0.05), math.log(5.0), size=(2, j)))
            yield ObservedData(k=k, n=n, n_obs=n_obs), k, PriorSpec(alpha=alpha, beta=beta)

    def test_bounds_equal_untrimmed_quantiles(self):
        mismatches, narrowed = [], 0
        for obs, k, prior in self.datasets(33, 3000):
            matrix, step = build_model_matrix(k), lattice_step(k, obs.n_units)
            l = 1 + int(obs.n_obs.sum()) % (obs.n_arms - 1)
            offset, pmf = predictive_pmf(obs, matrix, l, prior)
            for level in self.LEVELS:
                report = exact_interval(obs, matrix, l, prior, level)
                if (report.lower, report.upper) != pmf_quantiles(offset, pmf, step, level):
                    mismatches.append((obs, l, prior, level))
            cuts = (TRIM * 0.025, TRIM * 0.025)
            [(_, _, law)] = _effect_laws(obs.n, obs.n_obs[None], matrix.entries[:, l], prior, cuts)
            narrowed += law.shape[1] < pmf.size
        assert not mismatches
        assert narrowed > 2000  # the circle is narrower than the support on these datasets
