import os

import numpy as np
import pytest

from factorial2k import ObservedData
from factorial2k.bayes import PriorSpec, draw_marginals, posterior_mean
from factorial2k.bayes import draw_effect as draw_effect_indep
from factorial2k.sensitivity import (
    MARGINAL_EPS,
    conditional_probs,
    draw_effect,
    gamma_ar1,
    gamma_custom,
    imputed_counts,
    interval,
    sweep,
)

from test_bayes import mc_se_mean
from test_fanout import no_fork


def quadrature_draw_mean(obs, matrix, l, prior, rho):
    """Exact mean of the association-aware draw, by integration.

    For target t conditioned on arm c the scheme's expected imputed
    count needs E[min(1, pi_t/pi_c)] and E[max(pi_t - pi_c, 0)/(1 - pi_c)]
    over the independent Beta posteriors.  The inner integral over pi_t
    reduces to Beta CDFs (int_0^x y f_{a,b}(y) dy = mean * F_{a+1,b}(x)),
    leaving a one-dimensional quadrature over pi_c.
    """
    from scipy import integrate
    from scipy.stats import beta as beta_dist

    a = prior.alpha + obs.n_obs
    b = prior.beta + obs.n - obs.n_obs
    means = a / (a + b)
    g = gamma_ar1(rho, obs.n_arms).gamma
    expected = np.zeros(obs.n_arms)
    for t in range(obs.n_arms):
        f_t = beta_dist(a[t], b[t]).cdf
        f_t_up = beta_dist(a[t] + 1, b[t]).cdf
        for c in range(obs.n_arms):
            if c == t:
                continue
            dist_c = beta_dist(a[c], b[c])
            lo, hi = dist_c.ppf(1e-12), dist_c.ppf(1 - 1e-12)

            def given_one(x):
                return ((1 - f_t(x)) + means[t] * f_t_up(x) / x) * dist_c.pdf(x)

            def given_zero(x):
                kept = means[t] * (1 - f_t_up(x)) - x * (1 - f_t(x))
                return kept / (1 - x) * dist_c.pdf(x)

            i1, _ = integrate.quad(given_one, lo, hi, epsabs=1e-12, limit=200)
            i0, _ = integrate.quad(given_zero, lo, hi, epsabs=1e-12, limit=200)
            gg = g[c, t]
            expected[t] += obs.n_obs[c] * ((1 - gg) * means[t] + gg * i1)
            expected[t] += (obs.n[c] - obs.n_obs[c]) * ((1 - gg) * means[t] + gg * i0)
    scale = 2.0 ** -(obs.k - 1) / obs.n_units
    return float(scale * (matrix.entries[:, l] @ (obs.n_obs + expected)))


class TestConditionalProbs:
    def test_symmetric_midpoint(self):
        given_one, given_zero = conditional_probs(0.5, 0.5, 0.5)
        assert given_one == pytest.approx(0.75, abs=1e-15)
        assert given_zero == pytest.approx(0.25, abs=1e-15)
        total = given_one * 0.5 + given_zero * 0.5
        assert total == pytest.approx(0.5, abs=1e-15)

    def test_zero_association_is_independence(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            pi_j, pi_jp = rng.uniform(0.01, 0.99, size=2)
            given_one, given_zero = conditional_probs(pi_j, pi_jp, 0.0)
            assert given_one == pi_jp
            assert given_zero == pi_jp

    def test_asymmetric_example(self):
        given_one, given_zero = conditional_probs(0.8, 0.4, 0.5)
        assert given_one == pytest.approx(0.45, abs=1e-15)
        assert given_zero == pytest.approx(0.20, abs=1e-15)
        total = given_one * 0.8 + given_zero * 0.2
        assert total == pytest.approx(0.4, abs=1e-15)

    def test_total_probability_and_joint_form_on_grid(self):
        """Law of total probability and the mixture joint both hold to
        1e-12 across a parameter grid (full 4000-point version runs in
        the acceptance suite)."""
        probs = np.linspace(0.05, 0.95, 10)
        gammas = np.linspace(0.0, 0.95, 5)
        for pi_j in probs:
            for pi_jp in probs:
                for g in gammas:
                    given_one, given_zero = conditional_probs(pi_j, pi_jp, g)
                    assert 0.0 <= given_one <= 1.0
                    assert 0.0 <= given_zero <= 1.0
                    total = given_one * pi_j + given_zero * (1 - pi_j)
                    assert total == pytest.approx(pi_jp, abs=1e-12)
                    joint = (1 - g) * pi_j * pi_jp + g * min(pi_j, pi_jp)
                    assert pi_j * given_one == pytest.approx(joint, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(31)
        pi_j = rng.uniform(0.05, 0.95, size=50)
        pi_jp = rng.uniform(0.0, 1.0, size=50)
        given_one, given_zero = conditional_probs(pi_j, pi_jp, 0.3)
        for i in range(50):
            single_one, single_zero = conditional_probs(pi_j[i], pi_jp[i], 0.3)
            assert given_one[i] == pytest.approx(single_one, abs=1e-15)
            assert given_zero[i] == pytest.approx(single_zero, abs=1e-15)

    def test_rejects_degenerate_conditioning_marginal(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                conditional_probs(bad, 0.5, 0.5)

    def test_rejects_bad_association(self):
        with pytest.raises(ValueError):
            conditional_probs(0.5, 0.5, 1.0)


class TestGammaStructures:
    def test_ar1_zero(self):
        g = gamma_ar1(0.0, 4)
        assert (g.gamma == 0).all()
        assert g.rho is not None
        assert g.rho == 0.0

    def test_ar1_powers(self):
        g = gamma_ar1(0.5, 4).gamma
        assert g[0, 1] == pytest.approx(0.5)
        assert g[0, 2] == pytest.approx(0.25)
        assert g[0, 3] == pytest.approx(0.125)
        assert np.array_equal(g, g.T)

    def test_ar1_reference_rho(self):
        assert gamma_ar1(0.68, 4).gamma[0, 1] == pytest.approx(0.68)

    def test_ar1_rejects_out_of_range(self):
        for rho in (-0.1, 1.0, 1.2):
            with pytest.raises(ValueError):
                gamma_ar1(rho, 4)

    def test_custom_accepts_valid_matrix(self):
        matrix = np.array([[0.9, 0.2], [0.2, 0.9]])  # diagonal ignored
        g = gamma_custom(matrix)
        assert g.rho is None
        assert g.gamma[0, 1] == 0.2
        assert g.gamma[0, 0] == 0.0

    def test_custom_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gamma_custom(np.array([[0.0, 0.2], [0.3, 0.0]]))

    def test_custom_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gamma_custom(np.array([[0.0, 1.0], [1.0, 0.0]]))


def replay_double_loop(obs, pi, gamma, rng):
    """The sampler's random-number contract written out as two binomial
    calls per (target, conditioning) arm pair, targets outermost."""
    p = np.atleast_2d(np.clip(pi, MARGINAL_EPS, 1.0 - MARGINAL_EPS))
    counts = np.zeros(p.shape, dtype=np.int64)
    for target in range(obs.n_arms):
        for cond in range(obs.n_arms):
            if cond == target:
                continue
            given_one, given_zero = conditional_probs(
                p[:, cond], p[:, target], gamma.gamma[cond, target]
            )
            counts[:, target] += rng.binomial(int(obs.n_obs[cond]), given_one)
            counts[:, target] += rng.binomial(int(obs.n[cond] - obs.n_obs[cond]), given_zero)
    return counts


class TestImputedCounts:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("association", [0.0, 0.5, 0.9, "custom"])
    @pytest.mark.parametrize("draws", [None, 1000])
    def test_random_numbers_match_double_loop(self, k, association, draws):
        setup = np.random.default_rng([44, k])
        n = setup.integers(2, 300, size=2**k)
        obs = ObservedData(k=k, n=n, n_obs=setup.integers(0, n + 1))
        if association == "custom":
            raw = setup.uniform(0.0, 0.95, size=(2**k, 2**k))
            gamma = gamma_custom(np.minimum(raw, raw.T))
        else:
            gamma = gamma_ar1(association, 2**k)
        # draws=None is a single draw, passed as a one-row batch
        pi = setup.uniform(size=(1 if draws is None else draws, 2**k))
        ours, theirs = np.random.default_rng(45), np.random.default_rng(45)
        counts = imputed_counts(obs, pi, gamma, ours)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, replay_double_loop(obs, pi, gamma, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_counts_within_missing_support(self, trial_obs):
        rng = np.random.default_rng(32)
        prior = PriorSpec.uniform(4)
        pi = draw_marginals(trial_obs, prior, rng, draws=5000)
        counts = imputed_counts(trial_obs, pi, gamma_ar1(0.7, 4), rng)
        upper = trial_obs.n_units - trial_obs.n
        assert (counts >= 0).all()
        assert (counts <= upper).all()


class TestDrawEffect:
    def test_zero_association_matches_independent_model(self, trial_obs, h2):
        """At zero association the sensitivity sampler and the
        independent-model sampler draw from the same distribution."""
        prior = PriorSpec.uniform(4)
        rng = np.random.default_rng(33)
        pi_a = draw_marginals(trial_obs, prior, rng, draws=100_000)
        sens = draw_effect(trial_obs, h2, 2, pi_a, gamma_ar1(0.0, 4), rng)
        pi_b = draw_marginals(trial_obs, prior, rng, draws=100_000)
        indep = draw_effect_indep(trial_obs, h2, 2, pi_b, rng)
        se = np.hypot(mc_se_mean(sens), mc_se_mean(indep))
        assert abs(sens.mean() - indep.mean()) <= 4 * se
        assert abs(sens.var() / indep.var() - 1.0) < 0.05

    def test_strong_association_shrinks_draw_variance(self, h2):
        """With identical marginals fixed at the observed rate, strong
        association makes imputations track the observed outcomes and the
        draws concentrate."""
        obs = ObservedData(k=2, n=np.full(4, 200), n_obs=np.full(4, 100))
        pi = np.full((50_000, 4), 0.5)
        rng = np.random.default_rng(34)
        tight = draw_effect(obs, h2, 1, pi, gamma_ar1(0.99, 4), rng)
        loose = draw_effect(obs, h2, 1, pi, gamma_ar1(0.0, 4), rng)
        assert tight.var() < loose.var()

    def test_draw_mean_matches_quadrature_oracle(self, trial_obs, h2):
        """The sampler's mean must agree with the exact expectation of the
        imputation scheme, computed by numerical integration over the
        Beta posteriors (independent of the sampling path)."""
        prior = PriorSpec.uniform(4)
        rng = np.random.default_rng(35)
        for rho in (0.0, 0.3, 0.7):
            target = quadrature_draw_mean(trial_obs, h2, 2, prior, rho)
            pi = draw_marginals(trial_obs, prior, rng, draws=200_000)
            values = draw_effect(trial_obs, h2, 2, pi, gamma_ar1(rho, 4), rng)
            assert abs(values.mean() - target) <= 4 * mc_se_mean(values)

    def test_posterior_mean_approximately_invariant_to_association(self, trial_obs, h2):
        """Association leaves the posterior-predictive mean essentially at
        the independent-model closed form.  The imputation scheme weights
        conditionals by observed counts rather than by the drawn
        marginals, so the invariance is exact at zero association and
        holds to O(Var(pi_j)) otherwise (about 5e-4 here at rho=0.3)."""
        prior = PriorSpec.uniform(4)
        closed = posterior_mean(trial_obs, h2, 2, prior)
        assert quadrature_draw_mean(trial_obs, h2, 2, prior, 0.0) == pytest.approx(
            closed, abs=1e-9
        )
        for rho in (0.3, 0.7):
            exact = quadrature_draw_mean(trial_obs, h2, 2, prior, rho)
            assert abs(exact - closed) < 2e-3


class TestSweep:
    def test_same_seed_reproduces_exactly(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        grid = [0.0, 0.4, 0.8]
        first = sweep(trial_obs, h2, 2, prior, grid, 2000, 0.95, np.random.default_rng(37))
        second = sweep(trial_obs, h2, 2, prior, grid, 2000, 0.95, np.random.default_rng(37))
        for a, b in zip(first.reports, second.reports):
            assert (a.lower, a.upper, a.variance) == (b.lower, b.upper, b.variance)
        assert first.conservative.rho == second.conservative.rho

    def test_conservative_is_widest(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        result = sweep(
            trial_obs, h2, 2, prior, [0.0, 0.3, 0.6, 0.9], 5000, 0.95,
            np.random.default_rng(38),
        )
        widths = [r.width for r in result.reports]
        assert result.conservative.width == max(widths)

    def test_zero_grid_matches_independent_interval(self, trial_obs, h2):
        from factorial2k.bayes import credible_interval

        prior = PriorSpec.uniform(4)
        result = sweep(trial_obs, h2, 2, prior, [0.0], 100_000, 0.95, np.random.default_rng(39))
        indep = credible_interval(trial_obs, h2, 2, prior, 100_000, 0.95, np.random.default_rng(40))
        assert len(result.reports) == 1
        assert result.reports[0].lower == pytest.approx(indep.lower, abs=5e-3)
        assert result.reports[0].upper == pytest.approx(indep.upper, abs=5e-3)

    def test_reports_carry_rho_and_method(self, trial_obs, h2):
        result = sweep(
            trial_obs, h2, 1, PriorSpec.uniform(4), [0.1, 0.2], 1000, 0.9,
            np.random.default_rng(41),
        )
        assert [r.rho for r in result.reports] == [0.1, 0.2]
        assert all(r.method == "bayes-sensitivity" for r in result.reports)
        assert all(r.mc_draws == 1000 for r in result.reports)

    def test_reports_do_not_depend_on_workers(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        grid = [0.0, 0.2, 0.5, 0.7, 0.9]
        runs = [
            sweep(trial_obs, h2, 2, prior, grid, 2000, 0.95, np.random.default_rng(44), threads=t)
            for t in (1, 2)
        ]
        assert runs[0].reports == runs[1].reports
        assert runs[0].conservative == runs[1].conservative

    @pytest.mark.parametrize("threads", [0, -4, True, 2.5])
    def test_rejects_bad_thread_counts(self, monkeypatch, trial_obs, h2, threads):
        """Nothing runs in-process in place of a refused count."""
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError, match="^threads(:| must be at least 1$)"):
            sweep(
                trial_obs, h2, 1, PriorSpec.uniform(4), [0.5], 1000, 0.95,
                np.random.default_rng(0), threads=threads,
            )

    def test_rejects_empty_grid(self, trial_obs, h2):
        with pytest.raises(ValueError):
            sweep(trial_obs, h2, 1, PriorSpec.uniform(4), [], 2000, 0.95, np.random.default_rng(0))

    def test_rejects_out_of_range_grid(self, trial_obs, h2):
        with pytest.raises(ValueError):
            sweep(
                trial_obs, h2, 1, PriorSpec.uniform(4), [0.5, 1.2], 2000, 0.95,
                np.random.default_rng(0),
            )


class TestInterval:
    def test_custom_matrix_reproduces_sweep_rows(self, trial_obs, h2):
        """One interval path: a custom matrix equal to the AR(1) preset,
        drawn from the stream the sweep spawns for that grid point, gives
        exactly the sweep's row."""
        prior = PriorSpec.uniform(4)
        grid = [0.0, 0.35, 0.7]
        result = sweep(trial_obs, h2, 2, prior, grid, 3000, 0.9, np.random.default_rng(42))
        streams = np.random.default_rng(42).spawn(len(grid))
        for rho, stream, row in zip(grid, streams, result.reports):
            custom = gamma_custom(gamma_ar1(rho, 4).gamma)
            report = interval(trial_obs, h2, 2, prior, custom, 3000, 0.9, stream)
            assert (report.lower, report.upper) == (row.lower, row.upper)
            assert (report.point, report.variance) == (row.point, row.variance)
            assert report.rho is None and row.rho == rho

    def test_report_fields(self, trial_obs, h2):
        prior = PriorSpec.uniform(4)
        report = interval(
            trial_obs, h2, 1, prior, gamma_ar1(0.25, 4), 2000, 0.8, np.random.default_rng(43)
        )
        assert report.method == "bayes-sensitivity"
        assert (report.effect, report.level, report.mc_draws, report.rho) == (1, 0.8, 2000, 0.25)
        assert report.point == posterior_mean(trial_obs, h2, 1, prior)
        assert report.lower < report.upper
