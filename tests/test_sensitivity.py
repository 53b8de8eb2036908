import itertools
import math

import numpy as np
import pytest

from pairedsurv import (
    build_sample,
    null_moments,
    pair_differences,
    pvalue_exact,
    pvalue_montecarlo,
    pvalue_normal,
    sensitivity_value,
    t_statistic,
    time_specific_test,
)
from pairedsurv.errors import LengthMismatch, TooManyPairs

from conftest import simulated_sample


def enumerate_randomization_p(d, t):
    """All 2^I equiprobable sign assignments, restricted to nonzero d."""
    d = np.asarray(d, float)
    d = d[d != 0]
    if d.size == 0:
        return 1.0 if t <= 0 else 0.0
    hits = total = 0
    for signs in itertools.product((1.0, -1.0), repeat=d.size):
        total += 1
        hits += float(d @ np.array(signs)) >= t - 1e-12
    return hits / total


# -- statistic and moments -------------------------------------------------

def test_t_statistic(five_pairs):
    scores = pair_differences(five_pairs, "pseudo", 1.3)
    assert t_statistic(scores, five_pairs) == pytest.approx(-1.0, abs=1e-12)


def test_t_statistic_arithmetic():
    sample = build_sample([
        ("a", 1, True, 1.0, True), ("a", 2, False, 2.0, True),
        ("b", 1, False, 3.0, True), ("b", 2, True, 4.0, True),
    ])
    assert t_statistic(np.array([1.0, -2.0]), sample) == 3.0


def test_t_statistic_length_mismatch(five_pairs):
    with pytest.raises(LengthMismatch):
        t_statistic(np.array([1.0, 2.0]), five_pairs)


def test_null_moments_randomization_case():
    mean, var = null_moments(np.array([1.0, -2.0, 0.5]), gamma=1.0)
    assert mean == 0.0
    assert var == pytest.approx(1.0 + 4.0 + 0.25)


def test_null_moments_hand_example():
    mean, var = null_moments(np.array([1.0, 1.0]), gamma=3.0)
    assert mean == pytest.approx(1.0)
    assert var == pytest.approx(1.5)


def test_null_moments_gamma_limit():
    d = np.array([0.3, -0.7, 1.1])
    mean, var = null_moments(d, gamma=1e9)
    assert mean == pytest.approx(np.abs(d).sum(), rel=1e-6)
    assert var == pytest.approx(0.0, abs=1e-6)


def test_gamma_below_one_rejected():
    with pytest.raises(ValueError):
        null_moments(np.array([1.0]), gamma=0.9)


# -- normal tail -----------------------------------------------------------

def test_pvalue_normal_center():
    assert pvalue_normal(2.0, 2.0, 4.0, "upper") == pytest.approx(0.5)
    assert pvalue_normal(2.0, 2.0, 4.0, "lower") == pytest.approx(0.5)


def test_pvalue_normal_quantile():
    p = pvalue_normal(1.645, 0.0, 1.0, "upper")
    assert p == pytest.approx(0.05, abs=1e-4)


def test_pvalue_normal_degenerate_convention():
    assert pvalue_normal(-1.0, 0.0, 0.0, "upper") == 1.0
    assert pvalue_normal(1.0, 0.0, 0.0, "upper") == 0.0
    assert pvalue_normal(1.0, 0.0, 0.0, "lower") == 1.0


# -- exact enumeration -------------------------------------------------------

def test_exact_single_pair():
    assert pvalue_exact(np.array([1.0]), 1.0, 1.0, "upper") == 0.5


def test_exact_two_pairs():
    assert pvalue_exact(np.array([1.0, 1.0]), 2.0, 1.0, "upper") == 0.25


def test_exact_matches_full_enumeration_at_gamma_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = rng.normal(size=8)
        d[rng.random(8) < 0.3] = 0.0
        t = float(rng.normal())
        assert pvalue_exact(d, t, 1.0, "upper") == pytest.approx(
            enumerate_randomization_p(d, t), abs=1e-12
        )


def test_exact_cap():
    with pytest.raises(TooManyPairs):
        pvalue_exact(np.ones(21), 0.0, 1.0, "upper")
    # overridable
    assert pvalue_exact(np.ones(21), 22.0, 1.0, "upper", max_pairs=21) == 0.0


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_exact_vs_montecarlo(gamma):
    rng = np.random.default_rng(2)
    d = rng.normal(size=12)
    t = float(np.abs(d).sum() * 0.25)
    exact = pvalue_exact(d, t, gamma, "upper")
    n = 10 ** 6
    mc = pvalue_montecarlo(d, t, gamma, n_draws=n, seed=5, direction="upper")
    se = math.sqrt(exact * (1 - exact) / n)
    assert abs(mc - exact) <= 3 * se + 1e-12


def test_montecarlo_deterministic():
    d = np.random.default_rng(3).normal(size=10)
    a = pvalue_montecarlo(d, 0.5, 1.5, n_draws=20_000, seed=9)
    b = pvalue_montecarlo(d, 0.5, 1.5, n_draws=20_000, seed=9)
    assert a == b


def test_montecarlo_symmetric_center():
    d = np.array([1.0, -1.0, 2.0, -2.0])
    exact = pvalue_exact(d, 0.0, 1.0, "upper")
    mc = pvalue_montecarlo(d, 0.0, 1.0, n_draws=200_000, seed=4)
    assert exact > 0.5  # tie mass included
    assert mc == pytest.approx(exact, abs=0.01)


# -- direction handling ------------------------------------------------------

def test_sign_flip_antisymmetry():
    rng = np.random.default_rng(8)
    sample = simulated_sample(60, "ph", seed=3)
    for gamma in (1.0, 1.7):
        for tau in (2.0, 4.0):
            up = time_specific_test(sample, tau, gamma, "normal", "upper")
            # negating every difference is the same sample with swapped roles;
            # emulate by flipping assignment signs
            flipped = type(sample)(sample.times, sample.events, -sample.assignment)
            down = time_specific_test(flipped, tau, gamma, "normal", "lower")
            assert up.p_value == pytest.approx(down.p_value, abs=1e-12)


def test_exact_lower_equals_mirror_upper():
    d = np.random.default_rng(12).normal(size=9)
    t = 0.4
    assert pvalue_exact(d, t, 2.0, "lower") == pytest.approx(
        pvalue_exact(-d, -t, 2.0, "upper"), abs=1e-12
    )


# -- time-specific test -------------------------------------------------------

def test_tau_zero_p_one():
    sample = simulated_sample(50, "ph", seed=1)
    res = time_specific_test(sample, 0.0, 1.0)
    assert res.p_value == 1.0


def test_tied_pairs_inert():
    # appending zero-difference pairs to the scores changes nothing
    rng = np.random.default_rng(2)
    d = rng.normal(size=12)
    sample = simulated_sample(12, "ph", seed=2)
    padded_d = np.concatenate([d, np.zeros(7)])
    assignment = np.concatenate([sample.assignment, [1, -1, 1, -1, 1, -1, 1]])
    gamma = 1.4
    t = float(d @ sample.assignment)
    assert float(padded_d @ assignment) == pytest.approx(t, abs=1e-12)
    assert null_moments(d, gamma) == pytest.approx(null_moments(padded_d, gamma),
                                                   rel=1e-14)
    assert pvalue_exact(d, t, gamma) == pytest.approx(
        pvalue_exact(padded_d, t, gamma), abs=1e-12
    )
    assert pvalue_montecarlo(d, t, gamma, 5000, seed=3) == pvalue_montecarlo(
        padded_d, t, gamma, 5000, seed=3
    )


def test_worst_case_dominance_and_monotone_in_gamma():
    for seed in range(5):
        sample = simulated_sample(70, "early_div", seed=seed)
        gammas = np.arange(1.0, 2.01, 0.1)
        pvals = [time_specific_test(sample, 3.0, g).p_value for g in gammas]
        assert all(b >= a - 1e-12 for a, b in zip(pvals, pvals[1:]))


def test_normal_close_to_exact_in_clt_regime():
    # I=500 samples whose p sits in [0.01, 0.2]: normal vs simulated
    # worst-case tails agree to 0.01 there
    checked = 0
    for seed, gamma in ((3, 1.2), (3, 1.3), (4, 1.3), (6, 1.1), (7, 1.3), (8, 1.2)):
        sample = simulated_sample(500, "ph", seed=seed)
        normal = time_specific_test(sample, 3.0, gamma, "normal", "lower")
        assert 0.01 <= normal.p_value <= 0.2
        mc = time_specific_test(sample, 3.0, gamma, "montecarlo", "lower",
                                n_draws=400_000, seed=11)
        assert abs(normal.p_value - mc.p_value) <= 0.01
        checked += 1
    assert checked == 6


# -- sensitivity value ---------------------------------------------------------

def test_sensitivity_value_brackets_alpha():
    sample = simulated_sample(400, "ph", seed=9)
    sv = sensitivity_value(sample, tau=4.0, alpha=0.05, tol=1e-3)
    assert not sv.already_sensitive and not sv.exceeded_max
    lo = time_specific_test(sample, 4.0, sv.value - 1e-3).p_value
    hi = time_specific_test(sample, 4.0, sv.value + 1e-3).p_value
    assert lo <= 0.05 <= hi


def test_sensitivity_value_already_sensitive():
    sample = simulated_sample(40, "no_effect", seed=13)
    sv = sensitivity_value(sample, tau=3.0, alpha=0.001)
    assert sv.already_sensitive and sv.value == 1.0


def test_sensitivity_value_exceeds_max():
    sample = simulated_sample(400, "ph", seed=9)
    sv = sensitivity_value(sample, tau=4.0, alpha=0.05, gamma_max=1.0001)
    assert sv.exceeded_max and sv.value == 1.0001


def test_sensitivity_value_needs_exactly_one_target():
    sample = simulated_sample(30, "ph", seed=1)
    with pytest.raises(ValueError):
        sensitivity_value(sample)
    with pytest.raises(ValueError):
        sensitivity_value(sample, tau=1.0, grid=(1.0, 2.0))


def test_sensitivity_value_ppw_needs_grid():
    sample = simulated_sample(30, "ph", seed=1)
    with pytest.raises(ValueError, match="include_ppw applies only to a grid"):
        sensitivity_value(sample, tau=1.0, include_ppw=True)


def test_sensitivity_value_overall_grid_target():
    sample = simulated_sample(400, "early_div", seed=4)
    sv = sensitivity_value(sample, grid=(1.0, 2.0, 3.0), alpha=0.05, tol=1e-3)
    if not (sv.already_sensitive or sv.exceeded_max):
        from pairedsurv import overall_test

        p_lo = overall_test(sample, (1.0, 2.0, 3.0), gamma=max(1.0, sv.value - 1e-3)).p_value
        p_hi = overall_test(sample, (1.0, 2.0, 3.0), gamma=sv.value + 1e-3).p_value
        assert p_lo <= 0.05 <= p_hi
    else:
        assert sv.value in (1.0, 10.0)
