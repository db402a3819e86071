import math

import numpy as np
import pytest

from factorial2k import ObservedData
from factorial2k.bayes import (
    PriorSpec,
    credible_interval,
    draw_effect,
    draw_marginals,
    exact_interval,
    posterior_mean,
    posterior_variance,
    posterior_variance_large_n,
    predictive_pmf,
)
from factorial2k.design import build_model_matrix, lattice_step
from factorial2k.neyman import point_estimate, variance_estimate

from helpers import random_observed


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

    def test_single_draw_shape(self, trial_obs):
        pi = draw_marginals(trial_obs, PriorSpec.uniform(4), np.random.default_rng(0))
        assert pi.shape == (4,)
        assert pi.ndim != 2


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
            ratio = posterior_variance(obs, prior) / posterior_variance_large_n(obs)
            gaps.append(abs(ratio - 1.0))
        assert gaps[0] < 0.05
        assert gaps[2] < gaps[0]
        assert gaps[2] < 5e-4

    def test_large_n_variance_below_conservative_estimate(self):
        """Term-by-term domination: the large-sample posterior variance
        never exceeds the conservative randomization variance, strictly
        when any arm rate is interior."""
        rng = np.random.default_rng(18)
        for _ in range(2000):
            obs = random_observed(rng, min_n=2, max_n=40)
            approx = posterior_variance_large_n(obs)
            conservative = variance_estimate(obs)
            assert approx <= conservative + 1e-15
            if np.any((obs.n_obs > 0) & (obs.n_obs < obs.n)):
                assert approx < conservative


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


def lgamma_effect_pmf(obs, matrix, l, prior):
    """Reference law of effect l: Beta-Binomial pmfs from math.lgamma,
    convolved one arm at a time; returns (offset, pmf) like predictive_pmf."""
    signs = matrix.entries[:, l]
    offset = 0
    pmf = np.ones(1)
    for sign, size, successes, a, b in zip(signs, obs.n, obs.n_obs, prior.alpha, prior.beta):
        m = obs.n_units - int(size)
        a, b = a + successes, b + size - successes
        arm = np.array([
            math.exp(
                math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1)
                + math.lgamma(x + a) + math.lgamma(m - x + b) - math.lgamma(m + a + b)
                + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            )
            for x in range(m + 1)
        ])
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


def random_datasets(seed, count=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 4))
        obs = random_observed(rng, k=k, min_n=2, max_n=40)
        prior = PriorSpec(
            alpha=rng.uniform(0.2, 3.0, size=2**k), beta=rng.uniform(0.2, 3.0, size=2**k)
        )
        yield obs, build_model_matrix(k), prior


class TestPredictivePmf:
    def test_sums_to_one(self, trial_obs, h2):
        for l in (1, 2, 3):
            _, pmf = predictive_pmf(trial_obs, h2, l, PriorSpec.uniform(4))
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pmf >= 0).all()

    def test_matches_lgamma_convolution(self, trial_obs, h2):
        cases = [(trial_obs, h2, PriorSpec.uniform(4))] + list(random_datasets(30, count=10))
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

    def test_tail_rounding_to_one_returns_support_maximum(self, trial_obs, h2):
        level = float(np.nextafter(1.0, 0.0))
        assert (1.0 + level) / 2.0 == 1.0
        prior = PriorSpec.uniform(4)
        offset, pmf = predictive_pmf(trial_obs, h2, 2, prior)
        report = exact_interval(trial_obs, h2, 2, prior, level)
        assert report.upper == lattice_step(2, trial_obs.n_units) * (offset + pmf.size - 1)

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
