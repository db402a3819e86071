"""The exact references against the package's closed forms."""

import numpy as np
import pytest

import exact
from factorial2k import ObservedData, bayes, neyman
from factorial2k.design import build_model_matrix

TRIAL = ([189, 188, 189, 189], [13, 29, 19, 34])
CASES = [
    (2, *TRIAL, [1.0] * 4, [1.0] * 4),
    (1, [12, 30], [3, 29], [0.5, 2.0], [3.0, 0.5]),
    (3, [5, 6, 7, 8, 9, 10, 11, 12], [0, 6, 3, 4, 1, 9, 2, 12], [1.0] * 8, [2.5] * 8),
]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_model_matrix_matches_package(k):
    assert np.array_equal(exact.model_matrix(k), build_model_matrix(k).entries)


@pytest.mark.parametrize("k, n, n_obs, alpha, beta", CASES)
def test_exact_distribution_reproduces_posterior_moments(k, n, n_obs, alpha, beta):
    obs = ObservedData(k=k, n=np.array(n), n_obs=np.array(n_obs))
    prior = bayes.PriorSpec(alpha=np.array(alpha), beta=np.array(beta))
    matrix = build_model_matrix(k)
    for l in range(1, 2**k):
        dist = exact.effect_distribution(n, n_obs, alpha, beta, k, l)
        assert abs(dist.pmf.sum() - 1.0) < 1e-9
        assert abs(dist.mean() - bayes.posterior_mean(obs, matrix, l, prior)) < 1e-12
        assert abs(dist.variance() - bayes.posterior_variance(obs, prior)) < 1e-12


@pytest.mark.parametrize("l", [1, 2, 3])
def test_neyman_interval_matches_package(l):
    obs = ObservedData(k=2, n=np.array(TRIAL[0]), n_obs=np.array(TRIAL[1]))
    report = neyman.confidence_interval(obs, build_model_matrix(2), l, 0.95)
    reference = exact.neyman_interval(*TRIAL, 2, l, 0.95)
    for key in ("point", "variance", "lower", "upper"):
        assert reference[key] == pytest.approx(getattr(report, key), abs=1e-12)


def _exact_quantile(dist, q):
    index = int(np.searchsorted(np.cumsum(dist.pmf), q))
    return dist.scale * (dist.offset + index)


def test_quantile_check_accepts_exact_and_sampled_quantiles():
    dist = exact.effect_distribution(*TRIAL, [1.0] * 4, [1.0] * 4, 2, 2)
    obs = ObservedData(k=2, n=np.array(TRIAL[0]), n_obs=np.array(TRIAL[1]))
    report = bayes.credible_interval(
        obs, build_model_matrix(2), 2, bayes.PriorSpec.uniform(4), 200_000, 0.95,
        np.random.default_rng(3),
    )
    for value, q in ((report.lower, 0.025), (report.upper, 0.975)):
        assert dist.quantile_error(value, q, 200_000) is None
        assert dist.quantile_error(_exact_quantile(dist, q), q, 200_000) is None
        assert dist.quantile_error(float(f"{value:.6g}"), q, 200_000) is None


def test_quantile_check_rejects_values_off_by_a_few_lattice_steps():
    dist = exact.effect_distribution(*TRIAL, [1.0] * 4, [1.0] * 4, 2, 2)
    for q in (0.025, 0.975):
        exact_value = _exact_quantile(dist, q)
        for steps in (-3, 3):
            assert dist.quantile_error(exact_value + steps * dist.scale, q, 200_000)
        assert dist.quantile_error(5.0, q, 200_000)
