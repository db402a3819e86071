"""The shared argument checks: one message per condition, whichever
module raises it, and no silent coercion of outside input."""

import json
import re

import numpy as np
import pytest

from factorial2k import CaseFileError, CellCounts, ObservedData, ResourceLimitError, StudyConfig
from factorial2k import _checks, bayes, harness, neyman, population, sensitivity
from factorial2k.design import build_model_matrix

from test_harness import toy_rows, write_toy_config


class TestOneMessagePerCondition:
    def test_effect_index(self, trial_obs, h2, case1_table):
        prior = bayes.PriorSpec.uniform(4)
        pi = np.full((10, 4), 0.5)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        calls = [
            lambda: neyman.point_estimate(trial_obs, h2, 4),
            lambda: bayes.posterior_mean(trial_obs, h2, 4, prior),
            lambda: bayes.draw_effect(trial_obs, h2, 4, pi, np.random.default_rng(0)),
            lambda: sensitivity.draw_effect(trial_obs, h2, 4, pi, gamma, np.random.default_rng(0)),
            lambda: population.individual_effects(case1_table, h2, 4),
            lambda: population.estimands(case1_table, h2).effect(4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^effect index 4 outside 1\.\.3$"):
                call()

    def test_model_matrix(self, trial_obs, case1_table):
        h1 = build_model_matrix(1)
        calls = [
            lambda: neyman.point_estimate(trial_obs, h1, 1),
            lambda: bayes.posterior_mean(trial_obs, h1, 1, bayes.PriorSpec.uniform(4)),
            lambda: population.estimands(case1_table, h1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^model matrix is for K=1, data for K=2$"):
                call()

    def test_level(self, trial_obs, h2):
        prior = bayes.PriorSpec.uniform(4)
        rng = np.random.default_rng(0)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        calls = [
            lambda: neyman.confidence_interval(trial_obs, h2, 1, 1.0),
            lambda: bayes.credible_interval(trial_obs, h2, 1, prior, 1000, 1.0, rng),
            lambda: bayes.exact_interval(trial_obs, h2, 1, prior, 1.0),
            lambda: sensitivity.interval(trial_obs, h2, 1, prior, gamma, 1000, 1.0, rng),
            lambda: sensitivity.sweep(trial_obs, h2, 1, prior, [0.5], 1000, 1.0, rng),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^interval level must be in \(0,1\), got 1.0$"):
                call()

    def test_draws(self, trial_obs, h2):
        prior = bayes.PriorSpec.uniform(4)
        rng = np.random.default_rng(0)
        gamma = sensitivity.gamma_ar1(0.5, 4)
        calls = [
            lambda: bayes.credible_interval(trial_obs, h2, 1, prior, 999, 0.95, rng),
            lambda: sensitivity.interval(trial_obs, h2, 1, prior, gamma, 999, 0.95, rng),
            lambda: sensitivity.sweep(trial_obs, h2, 1, prior, [0.5], 999, 0.95, rng),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^need at least 1000 draws, got 999$"):
                call()

    def test_association_size(self, trial_obs):
        pi = np.full((10, 4), 0.5)
        gamma = sensitivity.gamma_ar1(0.5, 2)
        with pytest.raises(ValueError, match="association matrix is 2x2, data has 4 arms"):
            sensitivity.imputed_counts(trial_obs, pi, gamma, np.random.default_rng(0))


class TestDrawBound:
    def test_admits_the_defaults(self):
        for draws in (200_000, 50_000, 1_000_000):
            _checks.check_draws(draws, 4)

    def test_rejects_before_drawing(self, trial_obs, h2):
        prior = bayes.PriorSpec.uniform(4)

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("the generator must not be touched")

        draws = _checks.MAX_DRAW_CELLS // 4 + 1
        with pytest.raises(ResourceLimitError):
            bayes.credible_interval(trial_obs, h2, 1, prior, draws, 0.95, NoDraws())
        gamma = sensitivity.gamma_ar1(0.5, 4)
        with pytest.raises(ResourceLimitError):
            sensitivity.interval(trial_obs, h2, 1, prior, gamma, draws, 0.95, NoDraws())


class TestLatticeBound:
    def test_admits_large_designs(self):
        # K=7 with 100 units per arm: 128 arms x 12,700 missing outcomes
        _checks.check_lattice(128 * 12_700 + 1)
        _checks.check_lattice(_checks.MAX_DRAW_CELLS)

    def test_rejects_before_allocating(self, monkeypatch, h2):
        def allocates(*args):
            raise AssertionError("no pmf may be built")

        monkeypatch.setattr(bayes, "_beta_binomial", allocates)
        # 4 arms, each missing 3n outcomes: 12n + 1 lattice points
        n = _checks.MAX_DRAW_CELLS // 12 + 1
        obs = ObservedData(k=2, n=[n] * 4, n_obs=[1] * 4)
        prior = bayes.PriorSpec.uniform(4)
        with pytest.raises(ResourceLimitError, match=r"lattice of \d+ points exceeds the bound"):
            bayes.exact_interval(obs, h2, 1, prior, 0.95)
        obs = ObservedData(k=2, n=[n - 1] * 4, n_obs=[1] * 4)
        with pytest.raises(AssertionError, match="no pmf may be built"):
            bayes.exact_interval(obs, h2, 1, prior, 0.95)


class TestNonFinite:
    def test_association_matrix(self):
        gamma = np.full((4, 4), 0.5)
        gamma[0, 1] = gamma[1, 0] = float("nan")
        with pytest.raises(ValueError, match="^association matrix entries must be finite$"):
            sensitivity.gamma_custom(gamma)
        gamma[0, 1] = gamma[1, 0] = float("inf")
        with pytest.raises(ValueError, match="^association matrix entries must be finite$"):
            sensitivity.GammaStructure(gamma=gamma)


class TestNoSilentCoercion:
    @pytest.mark.parametrize(
        "n, n_obs",
        [
            ([10.7, 10.2], [3, 1]),  # fractional arm sizes
            ([10, 10], [3.9, 1]),  # fractional success count
            ([10, 10], [3, True]),  # boolean
            ([10, float("nan")], [3, 1]),  # NaN
            ([10, 10], ["3", 1]),  # not a number
            (np.array([10.5, 10.0]), np.array([3, 1])),  # float array
            (np.array([10, 10]), np.array([True, False])),  # bool array
        ],
    )
    def test_observed_data_rejects(self, n, n_obs):
        with pytest.raises(ValueError, match="not a whole number"):
            ObservedData(k=1, n=n, n_obs=n_obs)

    def test_the_reported_example(self):
        with pytest.raises(ValueError, match="arm sizes: 10.7 is not a whole number"):
            ObservedData(k=1, n=[10.7, 10.2], n_obs=[3.9, True])

    def test_integral_floats_pass(self):
        obs = ObservedData(k=1, n=[10.0, np.float64(12.0)], n_obs=np.array([3.0, 4.0]))
        assert obs.n.dtype == np.int64 and obs.n.tolist() == [10, 12]
        assert obs.n_obs.dtype == np.int64 and obs.n_obs.tolist() == [3, 4]

    def test_integer_arrays_are_not_scanned(self, monkeypatch):
        """The replication loop builds ObservedData from int64 arrays; only
        the dtype is looked at there."""

        def scanned(value, name):
            raise AssertionError("element scan on an integer array")

        monkeypatch.setattr(_checks, "whole_number", scanned)
        obs = ObservedData(k=1, n=np.array([10, 12]), n_obs=np.array([3, 4], dtype=np.int32))
        assert obs.n_obs.dtype == np.int64

    def test_case_file_keeps_integral_floats(self, tmp_path):
        as_ints = tmp_path / "ints.csv"
        as_ints.write_text("8,12,10,10\n")
        as_floats = tmp_path / "floats.csv"
        as_floats.write_text("8.0,12,10.0,10\n")
        (a,) = harness.load_fixture_cases(as_ints, expected_total=40)
        (b,) = harness.load_fixture_cases(as_floats, expected_total=40)
        assert b.counts.counts.dtype == np.int64
        assert b.counts.counts.tolist() == a.counts.counts.tolist() == [8, 12, 10, 10]
        assert np.array_equal(a.true_effects, b.true_effects)

    def test_case_file_rejects_fractions(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("8,12,10,10\n\n8.5,11.5,10,10\n")
        message = f"{path}: row 3: cell counts: 8.5 is not a whole number"
        with pytest.raises(CaseFileError, match=f"^{re.escape(message)}$"):
            harness.load_fixture_cases(path)

    def test_cell_counts_reject_fractions(self):
        with pytest.raises(ValueError, match="cell counts"):
            CellCounts(k=1, counts=[1, 2.5, 3, 4])

    @pytest.mark.parametrize(
        "override",
        [
            {"effect": 1.9},
            {"effect": True},
            {"arms": [10.5, 10, 10, 9.5]},
            {"replications": "25"},
            {"seed": 7.25},
            {"replications": float("nan")},
            {"cases": {"n_cases": 2.5, "N": 40, "seed": 1}},
            {"cases": {"n_cases": 2, "N": 40, "seed": 1, "cells": 16.5}},
        ],
    )
    def test_study_config_rejects(self, tmp_path, override):
        path = write_toy_config(tmp_path, toy_rows(1), **override)
        with pytest.raises(ValueError, match="not a whole number"):
            StudyConfig.from_json(path)

    def test_study_config_keeps_integral_floats(self, tmp_path):
        path = write_toy_config(
            tmp_path, toy_rows(1), effect=1.0, arms=[10.0, 10, 10, 10], seed=77.0
        )
        config = StudyConfig.from_json(path)
        assert (config.effect, config.arms, config.seed) == (1, (10, 10, 10, 10), 77)
        assert all(type(v) is int for v in (config.effect, config.seed, *config.arms))

    def test_generator_spec_from_json(self, tmp_path):
        path = tmp_path / "study.json"
        raw = {"cases": {"n_cases": 3.0, "N": 40, "seed": 9}, "arms": [10, 10, 10, 10],
               "effect": 1, "replications": 2, "seed": 3}
        path.write_text(json.dumps(raw))
        assert StudyConfig.from_json(path).cases == harness.GeneratorSpec(3, 40, 16, 9)
