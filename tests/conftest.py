import numpy as np
import pytest

from factorial2k import CellCounts, ObservedData, from_cell_counts
from factorial2k.design import build_model_matrix

from helpers import CASE_1, TRIAL_N, TRIAL_N_OBS


@pytest.fixture(scope="session")
def h2():
    return build_model_matrix(2)


@pytest.fixture(scope="session")
def trial_obs():
    return ObservedData(k=2, n=np.array(TRIAL_N), n_obs=np.array(TRIAL_N_OBS))


@pytest.fixture(scope="session")
def case1_table():
    return from_cell_counts(CellCounts(k=2, counts=np.array(CASE_1)))
