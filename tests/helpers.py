"""Known-answer inputs and random-data builders shared by the test modules."""

import numpy as np

from factorial2k import ObservedData, PotentialTable

# First two bundled fixture populations, used as known-answer inputs.
CASE_1 = (33, 12, 0, 63, 18, 93, 63, 118, 53, 41, 44, 71, 67, 58, 58, 8)
CASE_2 = (52, 61, 10, 57, 111, 64, 22, 25, 11, 67, 85, 39, 7, 107, 57, 25)

# 2x2 smoking-cessation trial: (gum, counseling) arms, quit counts at 26 weeks.
TRIAL_N = (189, 188, 189, 189)
TRIAL_N_OBS = (13, 29, 19, 34)


def random_table(rng, n_units, k=2):
    """Random binary potential-outcome table, never fully degenerate."""
    outcomes = rng.integers(0, 2, size=(n_units, 2**k))
    return PotentialTable(k=k, outcomes=outcomes)


def random_observed(rng, k=2, min_n=5, max_n=60):
    """Random observed dataset with arm sizes in [min_n, max_n]."""
    j = 2**k
    n = rng.integers(min_n, max_n + 1, size=j)
    n_obs = rng.binomial(n, rng.uniform(0.05, 0.95, size=j))
    return ObservedData(k=k, n=n, n_obs=n_obs)
