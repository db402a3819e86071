from fractions import Fraction

import numpy as np
import pytest

from factorial2k import ObservedData, enumerate_assignments, observe, sampling_variance
from factorial2k.neyman import (
    confidence_interval,
    normal_quantile,
    point_estimate,
    variance_estimate,
)

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
        expected = 2 * normal_quantile(0.95) * np.sqrt(report.variance)
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


class TestNormalQuantile:
    def test_reference_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-9)
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.995) == pytest.approx(2.575829304, abs=1e-9)

    def test_rejects_endpoints(self):
        for q in (0.0, 1.0):
            with pytest.raises(ValueError):
                normal_quantile(q)


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
            for a in enumerate_assignments(8, arms):
                obs = observe(table, a)
                est = Fraction(sum(hj * int(o) for hj, o in zip(h, obs.n_obs)), 4)
                vhat = Fraction(sum(int(o) * (2 - int(o)) for o in obs.n_obs), 16)
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
