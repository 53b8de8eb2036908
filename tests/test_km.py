import numpy as np
import pytest

from pairedsurv import event_table, km_at, km_estimate, logrank_scores, pw_scores

from conftest import random_units


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
