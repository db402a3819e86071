import math
import re
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri

from factorial2k import ObservedData, enumerate_assignments, neyman, observe, sampling_variance
from factorial2k.design import build_model_matrix
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


def numpy_reference(obs, matrix, l, level):
    """Point, variance, lower and upper from numpy expressions over the
    J-element arrays, the way the interval was computed before it ran
    on Python floats."""
    k, p, h = obs.k, obs.n_obs / obs.n, matrix.entries[:, l]
    point = float(2.0 ** -(k - 1) * (h @ p))
    variance = float(4.0 ** -(k - 1) * (p * (1 - p) / (obs.n - 1)).sum())
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * float(np.sqrt(variance))
    return point, variance, point - half, point + half


def float_reference(obs, matrix, l, level):
    """Point, variance, lower and upper from the module docstring's
    formulas: p_j = n_obs_j / n_j, each sum over the arms in a Python-float
    loop, left to right."""
    k, h = obs.k, matrix.entries[:, l].tolist()
    p = [s / n for s, n in zip(obs.n_obs.tolist(), obs.n.tolist())]
    point_sum = variance_sum = 0.0
    for h_j, p_j, n_j in zip(h, p, obs.n.tolist()):
        point_sum += h_j * p_j
        variance_sum += p_j * (1.0 - p_j) / (n_j - 1)
    point = 2.0 ** -(k - 1) * point_sum
    variance = 4.0 ** -(k - 1) * variance_sum
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * math.sqrt(variance)
    return point, variance, point - half, point + half


def random_datasets(rng, k, count):
    """``count`` random (data, effect, level) triples with arms of 2-400
    units and arm rates spread over [0, 1]."""
    for _ in range(count):
        n = rng.integers(2, 401, size=2**k)
        n_obs = rng.binomial(n, rng.uniform(0.0, 1.0, size=2**k))
        l, level = int(rng.integers(1, 2**k)), rng.uniform(0.01, 0.999)
        yield ObservedData(k=k, n=n, n_obs=n_obs), l, level


class TestFloatPath:
    """The interval runs on Python floats, summing over the arms left to
    right.  numpy sums J <= 4 elements in that order too, so at K <= 2
    every value equals numpy's; at K >= 3 numpy's sums group the terms
    otherwise."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_numpy_at_k_up_to_2(self, k):
        matrix = build_model_matrix(k)
        rng = np.random.default_rng(1900 + k)
        for obs, l, level in random_datasets(rng, k, 2000):
            report = confidence_interval(obs, matrix, l, level)
            got = (report.point, report.variance, report.lower, report.upper)
            assert got == numpy_reference(obs, matrix, l, level)
            assert point_estimate(obs, matrix, l) == report.point
            assert variance_estimate(obs) == report.variance

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_near_numpy_at_k_from_3(self, k):
        """Within J ulps of each value's magnitude: the sum of |terms| for
        the point and the variance, that plus the half-width for a bound.
        Each sum rounds J - 1 times, each time by at most half an ulp of
        that magnitude; a wrong term would be off by some 1e12 ulps.
        Measured on these datasets: at most 2, 3 and 4 ulps, all in the
        variance, at K = 3, 4 and 5."""
        matrix = build_model_matrix(k)
        rng = np.random.default_rng(1900 + k)
        for obs, l, level in random_datasets(rng, k, 500):
            report = confidence_interval(obs, matrix, l, level)
            got = (report.point, report.variance, report.lower, report.upper)
            point_size = 2.0 ** -(k - 1) * float(np.sum(obs.n_obs / obs.n))
            half = report.upper - report.point
            sizes = (point_size, report.variance, point_size + half, point_size + half)
            for value, want, size in zip(got, numpy_reference(obs, matrix, l, level), sizes):
                assert abs(value - want) <= 2**k * math.ulp(size)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bits_of_left_to_right_float_sums(self, k):
        """Every value equals, bit for bit, the module docstring's formulas
        summed on Python floats over the arms, left to right."""
        matrix = build_model_matrix(k)
        rng = np.random.default_rng(2100 + k)
        for obs, l, level in random_datasets(rng, k, 300):
            report = confidence_interval(obs, matrix, l, level)
            want = float_reference(obs, matrix, l, level)
            assert (report.point, report.variance, report.lower, report.upper) == want
            assert point_estimate(obs, matrix, l) == want[0]
            assert variance_estimate(obs) == want[1]

    def test_no_numpy_in_the_module(self):
        source = Path(neyman.__file__).read_text()
        assert not re.search(r"^\s*(import|from)\s+numpy", source, flags=re.MULTILINE)


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
