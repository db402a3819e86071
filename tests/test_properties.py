"""Property tests (hypothesis) for the input loaders, the sweep grid
parser, the conditional-probability laws and the cell-count round trip."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorial2k import CellCounts, from_cell_counts, to_cell_counts
from factorial2k.cli import load_analysis_input, load_analysis_input_csv, parse_rho_grid
from factorial2k.sensitivity import conditional_probs

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def observed_counts(draw):
    """(K, arm sizes, success counts) for a valid observed dataset."""
    k = draw(st.integers(1, 2))
    n = draw(st.lists(st.integers(2, 400), min_size=2**k, max_size=2**k))
    n_obs = [draw(st.integers(0, size)) for size in n]
    return k, n, n_obs


def load_both(k, n, n_obs):
    """Write one dataset as JSON and as CSV and load it with both loaders."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "obs.json"
        csv_path = Path(tmp) / "obs.csv"
        json_path.write_text(json.dumps({"K": k, "n": n, "n_obs": n_obs}))
        rows = [f"{arm},{size},{count}" for arm, (size, count) in enumerate(zip(n, n_obs), 1)]
        csv_path.write_text("arm,size,successes\n" + "\n".join(rows) + "\n")
        outcomes = []
        for load, path in ((load_analysis_input, json_path), (load_analysis_input_csv, csv_path)):
            try:
                outcomes.append(load(str(path))[0])
            except ValueError as exc:
                outcomes.append(exc)
        return outcomes


@SETTINGS
@given(observed_counts(), st.booleans())
def test_json_and_csv_input_agree(data, as_float):
    k, n, n_obs = data
    if as_float:  # integral floats such as 10.0 are valid input too
        n = [float(v) for v in n]
    from_json, from_csv = load_both(k, n, n_obs)
    for obs in (from_json, from_csv):
        assert obs.k == k
        assert obs.n.tolist() == [int(v) for v in n]
        assert obs.n_obs.tolist() == n_obs


NON_INTEGRAL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda x: not math.isfinite(x) or not x.is_integer()
    ),
    st.booleans(),
)


@SETTINGS
@given(observed_counts(), st.data())
def test_both_loaders_reject_non_integral_values(data, picks):
    k, n, n_obs = data
    column = picks.draw(st.sampled_from([n, n_obs]))
    column[picks.draw(st.integers(0, len(column) - 1))] = picks.draw(NON_INTEGRAL)
    from_json, from_csv = load_both(k, n, n_obs)
    assert isinstance(from_json, ValueError)
    assert isinstance(from_csv, ValueError)


GRID_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.99, 1.0, 1e-300, 5e-324]),
).map(repr)
GRID_SPEC = st.one_of(
    st.text(alphabet="0123456789.:,-+enaif ", max_size=24),
    st.tuples(GRID_NUMBER, GRID_NUMBER, GRID_NUMBER).map(":".join),
    st.lists(GRID_NUMBER, min_size=1, max_size=6).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(GRID_SPEC)
def test_parse_rho_grid_is_a_grid_or_a_value_error(spec):
    try:
        grid = parse_rho_grid(spec)
    except ValueError:
        return
    assert grid.ndim == 1 and grid.size >= 1
    assert ((grid >= 0) & (grid < 1)).all()


@SETTINGS
@given(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_conditional_probability_laws(pi_cond, pi_target, gamma):
    given_one, given_zero = conditional_probs(pi_cond, pi_target, gamma)
    assert 0.0 <= given_one <= 1.0
    assert 0.0 <= given_zero <= 1.0
    total = given_one * pi_cond + given_zero * (1 - pi_cond)
    assert total == pytest.approx(pi_target, abs=1e-12)
    joint = (1 - gamma) * pi_cond * pi_target + gamma * min(pi_cond, pi_target)
    assert pi_cond * given_one == pytest.approx(joint, abs=1e-12)


@SETTINGS
@given(st.sampled_from([1, 2]).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, 6), min_size=2 ** 2**k,
                                             max_size=2 ** 2**k))
))
def test_cell_count_round_trip(data):
    k, counts = data
    if sum(counts) == 0:
        counts[0] = 1
    cells = CellCounts(k=k, counts=np.array(counts))
    table = from_cell_counts(cells)
    assert table.n_units == sum(counts)
    assert to_cell_counts(table).counts.tolist() == counts
