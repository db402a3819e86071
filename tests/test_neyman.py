from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

from factorial2k import ObservedData, enumerate_assignments, observe, sampling_variance
from factorial2k.neyman import confidence_interval, point_estimate, variance_estimate

from helpers import random_table


class TestPointEstimate:
    def test_trial_effect2(self, trial_obs, h2):
        assert point_estimate(trial_obs, h2, 2) == pytest.approx(0.0824185, abs=5e-7)

    def test_constant_rates_give_zero(self, h2):
        obs = ObservedData(k=2, n=np.array([10, 10, 10, 10]), n_obs=np.array([4, 4, 4, 4]))
        for l in (1, 2, 3):
            assert point_estimate(obs, h2, l) == pytest.approx(0.0, abs=1e-15)

    def test_tiny_dataset_direct_value(self, h2):
        obs = ObservedData(k=2, n=np.array([2, 2, 2, 2]), n_obs=np.array([1, 2, 0, 1]))
        assert point_estimate(obs, h2, 1) == pytest.approx(-0.5, abs=1e-15)

    def test_rejects_bad_effect_index(self, trial_obs, h2):
        for l in (0, 4):
            with pytest.raises(ValueError):
                point_estimate(trial_obs, h2, l)


class TestVarianceEstimate:
    def test_trial_value(self, trial_obs):
        assert variance_estimate(trial_obs) == pytest.approx(5.7602e-4, abs=1e-8)
        assert np.sqrt(variance_estimate(trial_obs)) == pytest.approx(0.02400, abs=1e-5)

    def test_zero_successes_give_zero(self):
        obs = ObservedData(k=2, n=np.array([5, 5, 5, 5]), n_obs=np.zeros(4, dtype=int))
        assert variance_estimate(obs) == 0.0

    def test_observed_data_rejects_undersized_arm(self):
        with pytest.raises(ValueError):
            ObservedData(k=2, n=np.array([1, 5, 5, 5]), n_obs=np.zeros(4, dtype=int))


class TestConfidenceInterval:
    def test_trial_interval(self, trial_obs, h2):
        report = confidence_interval(trial_obs, h2, 2, 0.95)
        assert report.lower == pytest.approx(0.035, abs=1e-3)
        assert report.upper == pytest.approx(0.129, abs=1e-3)
        assert report.method == "neyman"
        assert report.level == 0.95

    def test_width_is_twice_z_times_se(self, trial_obs, h2):
        report = confidence_interval(trial_obs, h2, 1, 0.9)
        expected = 2 * ndtri(0.95) * np.sqrt(report.variance)
        assert report.width == pytest.approx(expected, rel=1e-12)

    def test_degenerate_interval(self, h2):
        obs = ObservedData(k=2, n=np.array([5, 5, 5, 5]), n_obs=np.zeros(4, dtype=int))
        report = confidence_interval(obs, h2, 1)
        assert report.lower == report.point == report.upper

    def test_higher_level_widens(self, trial_obs, h2):
        narrow = confidence_interval(trial_obs, h2, 2, 0.95)
        wide = confidence_interval(trial_obs, h2, 2, 0.99)
        assert wide.width > narrow.width
        assert wide.lower < narrow.lower < narrow.upper < wide.upper

    def test_variance_identical_across_effects(self, trial_obs, h2):
        variances = {confidence_interval(trial_obs, h2, l).variance for l in (1, 2, 3)}
        assert len(variances) == 1

    def test_rejects_bad_level(self, trial_obs, h2):
        for level in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                confidence_interval(trial_obs, h2, 1, level)


def z_of(report):
    """The normal quantile an interval used: its half-width over its SE."""
    return (report.upper - report.point) / np.sqrt(report.variance)


class TestNormalQuantile:
    """The quantile z_(1+level)/2 as it reaches ``confidence_interval``."""

    def test_reference_values(self, trial_obs, h2):
        assert z_of(confidence_interval(trial_obs, h2, 1, 0.95)) == pytest.approx(
            1.959963985, abs=1e-9
        )
        assert z_of(confidence_interval(trial_obs, h2, 1, 1e-12)) == pytest.approx(0.0, abs=1e-11)
        assert z_of(confidence_interval(trial_obs, h2, 1, 0.99)) == pytest.approx(
            2.575829304, abs=1e-9
        )

    def test_rejects_endpoints(self, trial_obs, h2):
        # levels -1 and 1 put the quantile at 0 and 1
        for level in (-1.0, 1.0):
            with pytest.raises(ValueError):
                confidence_interval(trial_obs, h2, 1, level)

    def test_matches_scipy_ndtri(self, h2):
        """Within about 1e-15 of ``scipy.special.ndtri``, as the README says.
        Equal arm rates put the point at exactly 0, so the upper end is the
        half-width itself, free of the rounding of point + half-width."""
        obs = ObservedData(k=2, n=np.full(4, 10), n_obs=np.full(4, 4))
        se = np.sqrt(variance_estimate(obs))
        for level in np.linspace(0.001, 0.999, 999):
            report = confidence_interval(obs, h2, 1, float(level))
            assert report.point == 0.0
            assert report.upper == pytest.approx(ndtri(0.5 + level / 2.0) * se, rel=1e-15)


class TestEnumerationIdentities:
    """Exhaustive-assignment checks on one small random population.

    The acceptance suite repeats these for 20 populations; here a single
    population keeps the signal in the fast suite.  All estimator values
    are recomputed with exact rational arithmetic, independent of the
    float production path.
    """

    def test_unbiasedness_and_variance_bias(self, h2):
        rng = np.random.default_rng(2024)
        table = random_table(rng, 8)
        arms = np.array([2, 2, 2, 2])
        n_arm_ones = [int(table.outcomes[:, j].sum()) for j in range(4)]
        successes = observe(table, np.array(list(enumerate_assignments(arms))))

        for l in (1, 2, 3):
            h = [int(v) for v in h2.entries[:, l]]
            # exact population quantities
            tau_bar = Fraction(sum(hj * nj for hj, nj in zip(h, n_arm_ones)), 2 * 8)
            s2_arm = [Fraction(nj * (8 - nj), 56) for nj in n_arm_ones]
            unit_effects = [
                Fraction(int(np.dot(h, table.outcomes[i])), 2) for i in range(8)
            ]
            s2_tau = sum((e - tau_bar) ** 2 for e in unit_effects) / 7
            true_var = Fraction(1, 4) * sum(s / 2 for s in s2_arm) - s2_tau / 8

            total = Fraction(0)
            total_sq = Fraction(0)
            total_vhat = Fraction(0)
            count = 0
            for n_obs in successes:
                est = Fraction(sum(hj * int(o) for hj, o in zip(h, n_obs)), 4)
                vhat = Fraction(sum(int(o) * (2 - int(o)) for o in n_obs), 16)
                total += est
                total_sq += est * est
                total_vhat += vhat
                count += 1

            assert count == 2520
            assert total / count == tau_bar
            assert total_sq / count - (total / count) ** 2 == true_var
            assert total_vhat / count == true_var + s2_tau / 8
            # float production path against the exact enumeration value
            assert abs(sampling_variance(table, h2, arms, l) - float(true_var)) < 1e-12
