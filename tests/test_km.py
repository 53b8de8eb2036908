import numpy as np
import pytest

from pairedsurv import (
    event_table,
    km_at,
    km_estimate,
    logrank_scores,
    pseudo_observations,
    pw_scores,
)
from pairedsurv.km import _event_index
from pairedsurv.simulate import ADMIN_CUTOFF

from conftest import event_index_oracle, random_units, simulated_sample


def test_two_events_half():
    curve = km_estimate([1.0, 2.0], [True, True])
    assert km_at(curve, 1.5) == 0.5


def test_worked_two_unit_example():
    # one unit past tau, one event before: estimate at tau is 1/2
    tau = 7.0
    curve = km_estimate([tau + 5, tau - 1], [True, True])
    assert km_at(curve, tau) == 0.5


def test_all_censored_is_one():
    curve = km_estimate([1.0, 2.0, 3.0], [False, False, False])
    assert curve.knots.size == 0
    assert km_at(curve, 10.0) == 1.0


def test_step_evaluation():
    curve = km_estimate([1.0, 2.0, 3.0], [True, True, True])
    assert km_at(curve, 0.5) == 1.0                      # before first knot
    assert km_at(curve, 1.0) == pytest.approx(2 / 3)      # right-continuous at knot
    assert km_at(curve, 99.0) == 0.0                      # beyond last knot
    np.testing.assert_allclose(km_at(curve, [0.0, 1.0, 2.5]), [1.0, 2 / 3, 1 / 3])


def test_events_first_tie_convention():
    # censored unit at t stays at risk for the event at t: n=3 there, not 2
    curve = km_estimate([1.0, 1.0, 2.0], [True, False, False])
    assert km_at(curve, 1.0) == pytest.approx(2 / 3)
    assert km_at(curve, 5.0) == pytest.approx(2 / 3)


def test_pooled_tied_events_single_step():
    curve = km_estimate([1.0, 1.0, 2.0], [True, True, False])
    assert curve.knots.tolist() == [1.0]
    assert curve.values[0] == pytest.approx(1 / 3)


@pytest.mark.parametrize("fn", [km_estimate, event_table, logrank_scores, pw_scores],
                         ids=lambda fn: fn.__name__)
def test_empty_raises(fn):
    # event_table makes both checks for every function built on it
    with pytest.raises(ValueError, match="no units supplied"):
        fn([], [])
    with pytest.raises(ValueError, match="must have equal length"):
        fn([1.0, 2.0], [True])


@pytest.mark.parametrize("fn", [km_estimate, event_table, logrank_scores, pw_scores,
                                lambda t, e: pseudo_observations(t, e, 1.0)],
                         ids=["km_estimate", "event_table", "logrank_scores", "pw_scores",
                              "pseudo_observations"])
@pytest.mark.parametrize("times", [[np.nan, np.nan, 1.0], [np.inf, 1.0, 2.0],
                                   [-1.0, 1.0, 2.0], [1.0, -np.inf, 2.0]])
def test_bad_times_raise(fn, times):
    with pytest.raises(ValueError, match="times must be finite and >= 0"):
        fn(times, [True] * len(times))


@pytest.mark.parametrize("t", [np.nan, [np.nan], [1.0, np.nan, 2.0]])
def test_km_at_nan_time_raises(t):
    # searchsorted puts NaN past every knot, which read the last value
    sample = simulated_sample(50, "ph", seed=1)
    curve = km_estimate(sample.unit_times, sample.unit_events)
    with pytest.raises(ValueError, match="t must not be NaN"):
        km_at(curve, t)


def _event_index_cases():
    rng = np.random.default_rng(23)
    t = rng.exponential(2.0, 400).round(1)  # heavy ties
    yield "rounded", t, rng.random(400) < 0.6
    yield "events_and_censorings_tied", np.array([2.0, 1.0, 2.0, 2.0, 3.0, 1.0]), \
        np.array([False, True, True, False, True, False])
    yield "all_censored", t, np.zeros(400, dtype=bool)
    yield "one_unit", np.array([4.2]), np.array([True])
    yield "zero_times", np.array([0.0, 0.0, 1.5, 0.0]), np.array([True, False, True, True])
    sample = simulated_sample(300, "ph", seed=4)
    assert np.any(sample.unit_times == ADMIN_CUTOFF)
    yield "admin_cutoff", sample.unit_times, sample.unit_events
    shuffle = rng.permutation(sample.unit_times.size)
    yield "admin_cutoff_shuffled", sample.unit_times[shuffle], sample.unit_events[shuffle]


@pytest.mark.parametrize("case", list(_event_index_cases()), ids=lambda case: case[0])
def test_event_index_matches_oracle(case):
    _, t, e = case
    got, want = _event_index(t, e), event_index_oracle(t, e)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if not e.any():
        assert got[0].size == 0 and not got[3].any()


def test_monotone_and_bounded_on_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(50):
        t, e = random_units(rng)
        curve = km_estimate(t, e)
        assert np.all(np.diff(curve.values) <= 1e-15)
        assert np.all(curve.values <= 1.0) and np.all(curve.values >= 0.0)


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    t, e = random_units(rng, n=60)
    curve = km_estimate(t, e)
    order = rng.permutation(60)
    shuffled = km_estimate(t[order], e[order])
    np.testing.assert_array_equal(curve.knots, shuffled.knots)
    np.testing.assert_array_equal(curve.values, shuffled.values)


def test_event_table_risk_sets():
    t, m, n = event_table([1.0, 2.0, 3.0, 3.0], [True, False, True, True])
    assert t.tolist() == [1.0, 3.0]
    assert n.tolist() == [4, 2]
    assert m.tolist() == [1, 2]
