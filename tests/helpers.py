"""Known-answer inputs and random-data builders shared by the test modules."""

import re

import numpy as np

from factorial2k import ObservedData, PotentialTable

# First two bundled fixture populations, used as known-answer inputs.
CASE_1 = (33, 12, 0, 63, 18, 93, 63, 118, 53, 41, 44, 71, 67, 58, 58, 8)
CASE_2 = (52, 61, 10, 57, 111, 64, 22, 25, 11, 67, 85, 39, 7, 107, 57, 25)

# 2x2 smoking-cessation trial: (gum, counseling) arms, quit counts at 26 weeks.
TRIAL_N = (189, 188, 189, 189)
TRIAL_N_OBS = (13, 29, 19, 34)

# The one level in (0, 1) whose upper tail 1 - (1 + level) / 2 rounds to 0
# (1 - 2^-53), the message every entry point refuses it with, and that
# message as an anchored pattern.
ZERO_TAIL_LEVEL = 0.9999999999999999
ZERO_TAIL_MESSAGE = (
    "interval level 0.9999999999999999 leaves an upper tail 1 - (1 + level) / 2 of 0; "
    "the largest level is 0.9999999999999998"
)
ZERO_TAIL = f"^{re.escape(ZERO_TAIL_MESSAGE)}$"


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


def pmf_quantiles(offset, pmf, step, level):
    """Equal-tailed bounds of the lattice law ``step * (offset + i)`` with
    probability ``pmf[i]``: the smallest value with P(X <= v) >= q for the
    lower bound, with P(X > v) <= 1 - q for the upper one, each tail summed
    from its own end (the exact interval's rule, over the whole support)."""
    lower = np.count_nonzero(np.cumsum(pmf) < (1.0 - level) / 2.0)
    upper = np.count_nonzero(np.cumsum(pmf[::-1])[::-1][1:] > 1.0 - (1.0 + level) / 2.0)
    return step * (offset + lower), step * (offset + upper)
