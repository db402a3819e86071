"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-3 reproduce the bundled trial reanalysis, 4 the balanced
coverage study, 5-8 the estimator identities and posterior properties,
and 9 the CLI reproducibility contract.  Every tolerance is fixed here,
except the bands of criteria 4b and 4c: those are computed from the
study config's replication count, case count and level (the spread that
exactly calibrated intervals would show from replication noise alone),
never from the program's output.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from factorial2k import ObservedData, enumerate_assignments, observe
from factorial2k import bayes, harness, neyman, sensitivity
from factorial2k.data import data_path

from helpers import random_table
from test_bayes import mc_se_mean, mc_se_variance
from test_cli import run_cli
from test_harness import toy_rows, write_toy_config

MASTER_SEED = 20260810


@contextmanager
def criterion(label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds


def replication_noise_band(report, beyond):
    """Central 99% band for the share of cases whose coverage lies
    ``beyond`` a threshold, if every case's intervals were exactly
    calibrated at the study's level.

    Each case's coverage is a count out of R replications, so a case
    lands beyond the threshold with probability p, an exact
    Binomial(R, level) tail; the number of such cases out of n is then
    Binomial(n, p).  The band spans its 0.5% and 99.5% quantiles.
    Only the config (R, level) and the number of cases enter it.
    """
    reps = report.config.replications
    level = Fraction(str(report.config.level))
    n_cases = len({r.case_id for r in report.rows})
    p = float(sum(
        math.comb(reps, k) * level**k * (1 - level) ** (reps - k)
        for k in range(reps + 1)
        if beyond(k / reps)
    ))
    cdf, quantiles = 0.0, []
    for x in range(n_cases + 1):
        cdf += math.comb(n_cases, x) * p**x * (1 - p) ** (n_cases - x)
        while len(quantiles) < 2 and cdf >= (0.005, 0.995)[len(quantiles)]:
            quantiles.append(x / n_cases)
    return tuple(quantiles)


@pytest.fixture(scope="module")
def balanced_study():
    config = harness.StudyConfig.from_json(data_path("study_balanced.json"))
    start = time.perf_counter()
    report = harness.run_study(config, threads=os.cpu_count())
    return report, time.perf_counter() - start


def test_criterion_1_trial_neyman_interval(trial_obs, h2):
    with criterion("1 (trial Neymanian point and CI)", budget_seconds=1.0):
        point = neyman.point_estimate(trial_obs, h2, 2)
        report = neyman.confidence_interval(trial_obs, h2, 2, 0.95)
        assert point == pytest.approx(0.0824, abs=5e-4)
        assert report.lower == pytest.approx(0.035, abs=1e-3)
        assert report.upper == pytest.approx(0.129, abs=1e-3)


def test_criterion_2_trial_independent_bayes(trial_obs, h2):
    with criterion("2 (trial independent Bayes interval)", budget_seconds=10.0):
        cred = bayes.exact_interval(trial_obs, h2, 2, bayes.PriorSpec.uniform(4), 0.95)
        ney = neyman.confidence_interval(trial_obs, h2, 2, 0.95)
        assert cred.lower == pytest.approx(0.041, abs=5e-3)
        assert cred.upper == pytest.approx(0.123, abs=5e-3)
        assert 0.82 <= cred.width / ney.width <= 0.91


def test_criterion_3_trial_sensitivity_sweep(trial_obs, h2):
    with criterion("3 (trial sensitivity sweep, widest interval)", budget_seconds=180.0):
        grid = np.round(np.arange(100) * 0.01, 2)
        rng = np.random.default_rng(np.random.SeedSequence(MASTER_SEED, spawn_key=(3,)))
        result = sensitivity.sweep(
            trial_obs, h2, 2, bayes.PriorSpec.uniform(4), grid, 50_000, 0.95, rng
        )
        widest = result.conservative
        print(f"\n  widest interval at rho={widest.rho}: ({widest.lower:.4f}, {widest.upper:.4f})")
        assert widest.lower == pytest.approx(0.037, abs=5e-3)
        assert widest.upper == pytest.approx(0.125, abs=5e-3)


def test_criterion_4a_balanced_study_neyman_overcoverage(balanced_study):
    report, elapsed = balanced_study
    with criterion("4a (balanced study: every Neymanian coverage >= 0.95)", 600.0):
        assert elapsed < 600.0
        coverages = [r.coverage for r in report.rows if r.method == "neyman"]
        assert len(coverages) == 100
        assert min(coverages) >= 0.95


def test_criterion_4b_balanced_study_bayes_above(balanced_study):
    report, _ = balanced_study
    lo, hi = replication_noise_band(report, lambda coverage: coverage > 0.96)
    label = f"4b (balanced study: Bayes share above 0.96 in [{lo:.2f}, {hi:.2f}])"
    with criterion(label, 600.0):
        fraction = report.aggregates["bayes-indep"]["frac_coverage_above_0.96"]
        neyman_fraction = report.aggregates["neyman"]["frac_coverage_above_0.96"]
        print(f"\n  observed share above 0.96: {fraction:.2f} (band [{lo:.2f}, {hi:.2f}]; "
              f"Neymanian {neyman_fraction:.2f})")
        assert lo <= fraction <= hi
        # The band still catches over-coverage: the Neymanian rows fall outside it.
        assert not lo <= neyman_fraction <= hi


def test_criterion_4c_balanced_study_bayes_below(balanced_study):
    report, _ = balanced_study
    lo, hi = replication_noise_band(report, lambda coverage: coverage < 0.94)
    label = f"4c (balanced study: Bayes share below 0.94 in [{lo:.2f}, {hi:.2f}])"
    with criterion(label, 600.0):
        fraction = report.aggregates["bayes-indep"]["frac_coverage_below_0.94"]
        neyman_fraction = report.aggregates["neyman"]["frac_coverage_below_0.94"]
        print(f"\n  observed share below 0.94: {fraction:.2f} (band [{lo:.2f}, {hi:.2f}]; "
              f"Neymanian {neyman_fraction:.2f})")
        assert lo <= fraction <= hi
        assert not lo <= neyman_fraction <= hi


def test_balanced_study_bayes_intervals_narrower(balanced_study):
    """Companion invariant to criterion 4: on every case the Bayesian
    mean interval width stays below the Neymanian one (1% slack)."""
    report, _ = balanced_study
    ney = {r.case_id: r.mean_width for r in report.rows if r.method == "neyman"}
    bay = {r.case_id: r.mean_width for r in report.rows if r.method == "bayes-indep"}
    assert all(bay[c] < ney[c] * 1.01 for c in ney)


def test_criterion_5_enumeration_identities(h2):
    with criterion("5 (exact enumeration identities, 20 populations)", budget_seconds=30.0):
        rng = np.random.default_rng(np.random.SeedSequence(MASTER_SEED, spawn_key=(5,)))
        arms = np.array([2, 2, 2, 2])
        columns = [[int(v) for v in h2.entries[:, l]] for l in (1, 2, 3)]
        for _ in range(20):
            table = random_table(rng, 8)
            ones = [int(table.outcomes[:, j].sum()) for j in range(4)]

            sum_u = [0, 0, 0]
            sum_u_sq = [0, 0, 0]
            sum_v = 0
            count = 0
            for a in enumerate_assignments(8, arms):
                obs = observe(table, a)
                n_obs = [int(o) for o in obs.n_obs]
                for i, h in enumerate(columns):
                    u = sum(hj * oj for hj, oj in zip(h, n_obs))
                    sum_u[i] += u
                    sum_u_sq[i] += u * u
                sum_v += sum(o * (2 - o) for o in n_obs)
                count += 1
            assert count == 2520

            mean_vhat = Fraction(sum_v, 16 * count)
            for i, h in enumerate(columns):
                tau_bar = Fraction(sum(hj * nj for hj, nj in zip(h, ones)), 16)
                s2_arm = [Fraction(nj * (8 - nj), 56) for nj in ones]
                effects = [
                    Fraction(int(np.dot(h, table.outcomes[unit])), 2) for unit in range(8)
                ]
                s2_tau = sum((e - tau_bar) ** 2 for e in effects) / 7
                true_var = Fraction(1, 4) * sum(s / 2 for s in s2_arm) - s2_tau / 8

                mean_est = Fraction(sum_u[i], 4 * count)
                var_est = Fraction(sum_u_sq[i], 16 * count) - mean_est**2
                assert mean_est == tau_bar
                assert var_est == true_var
                assert mean_vhat == true_var + s2_tau / 8


def test_criterion_6_posterior_moment_consistency(h2):
    with criterion("6 (posterior Monte Carlo matches closed forms, 20 datasets)", 120.0):
        rng = np.random.default_rng(np.random.SeedSequence(MASTER_SEED, spawn_key=(6,)))
        prior = bayes.PriorSpec.uniform(4)
        for i in range(20):
            n = rng.integers(5, 80, size=4)
            n_obs = rng.binomial(n, rng.uniform(0.1, 0.9, size=4))
            obs = ObservedData(k=2, n=n, n_obs=n_obs)
            l = int(rng.integers(1, 4))
            pi = bayes.draw_marginals(obs, prior, rng, draws=1_000_000)
            values = bayes.draw_effect(obs, h2, l, pi, rng)
            mean = bayes.posterior_mean(obs, h2, l, prior)
            variance = bayes.posterior_variance(obs, prior)
            assert abs(values.mean() - mean) <= 4 * mc_se_mean(values)
            assert abs(values.var() - variance) <= 4 * mc_se_variance(values)


def test_criterion_7_conditional_probability_laws():
    with criterion("7 (conditional-probability laws on 4000-point grid)", 1.0):
        pi_cond = np.linspace(0.025, 0.975, 20)
        pi_target = np.linspace(0.0, 1.0, 20)
        gammas = np.linspace(0.0, 0.9, 10)
        grid = np.stack(
            np.meshgrid(pi_cond, pi_target, gammas, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        assert grid.shape[0] == 4000
        given_one, given_zero = sensitivity.conditional_probs(grid[:, 0], grid[:, 1], grid[:, 2])
        assert ((given_one >= 0) & (given_one <= 1)).all()
        assert ((given_zero >= 0) & (given_zero <= 1)).all()
        total = given_one * grid[:, 0] + given_zero * (1 - grid[:, 0])
        np.testing.assert_allclose(total, grid[:, 1], atol=1e-12)
        joint = (1 - grid[:, 2]) * grid[:, 0] * grid[:, 1] + grid[:, 2] * np.minimum(
            grid[:, 0], grid[:, 1]
        )
        np.testing.assert_allclose(grid[:, 0] * given_one, joint, atol=1e-12)
        zero_one, zero_zero = sensitivity.conditional_probs(grid[:, 0], grid[:, 1], 0.0)
        assert (zero_one == grid[:, 1]).all()
        assert (zero_zero == grid[:, 1]).all()


def test_criterion_8_variance_domination():
    with criterion("8 (large-sample variance never exceeds conservative)", 5.0):
        rng = np.random.default_rng(np.random.SeedSequence(MASTER_SEED, spawn_key=(8,)))
        strict_seen = 0
        for _ in range(10_000):
            n = rng.integers(2, 200, size=4)
            n_obs = rng.binomial(n, rng.uniform(0.0, 1.0, size=4))
            p = n_obs / n
            total = n.sum()
            ney_terms = p * (1 - p) / (n - 1)
            approx_terms = (1 - n / total) * ney_terms
            assert (approx_terms <= ney_terms + 1e-18).all()
            if np.any((n_obs > 0) & (n_obs < n)):
                assert approx_terms.sum() < ney_terms.sum()
                strict_seen += 1
        assert strict_seen > 9000  # interior rates dominate the draw


def test_criterion_9_cli_determinism(tmp_path):
    with criterion("9 (CLI byte-identical under fixed seed and threads)", 300.0):
        # analyze: two consecutive runs
        args = ("analyze", "--input", data_path("ahluwalia.json"), "--seed", "7")
        assert run_cli(*args).stdout == run_cli(*args).stdout

        # sensitivity: stdout and CSV
        csv_path = tmp_path / "sweep.csv"
        args = ("sensitivity", "--input", data_path("ahluwalia.json"), "--effect", "2",
                "--grid", "0:0.3:0.1", "--draws", "2000", "--seed", "7",
                "--csv-out", csv_path)
        first = run_cli(*args).stdout
        csv_first = csv_path.read_text()
        assert run_cli(*args).stdout == first
        assert csv_path.read_text() == csv_first

        # gen-cases: identical files
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen-cases", "--count", "5", "--total", "40", "--seed", "7", "--out", out_a)
        run_cli("gen-cases", "--count", "5", "--total", "40", "--seed", "7", "--out", out_b)
        assert out_a.read_text() == out_b.read_text()

        # simulate: consecutive runs and thread counts 1 vs max
        config = write_toy_config(tmp_path, toy_rows(4))
        outputs = []
        for name, threads in (("t1", 1), ("t1b", 1), ("tmax", os.cpu_count() or 2)):
            out_csv = tmp_path / f"{name}.csv"
            cp = run_cli("simulate", "--config", config, "--out-csv", out_csv,
                         "--threads", threads)
            assert cp.returncode == 0, cp.stderr
            payload = json.loads(cp.stdout)
            del payload["coverage_csv"]
            outputs.append((out_csv.read_text(), payload))
        assert outputs[0] == outputs[1] == outputs[2]
