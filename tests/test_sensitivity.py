import itertools
import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from pairedsurv import (
    build_sample,
    null_moments,
    overall_test,
    pair_differences,
    ppw_test,
    pvalue_exact,
    pvalue_montecarlo,
    pvalue_normal,
    sensitivity_value,
    t_statistic,
    time_specific_test,
    write_csv,
)
from pairedsurv.cli import main
from pairedsurv.sensitivity import _search

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
    with pytest.raises(ValueError, match="scores have 2 pairs but sample has 5"):
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
    assert pvalue_normal(2.0, 2.0, 4.0) == pytest.approx(0.5)
    assert pvalue_normal(-2.0, -2.0, 4.0) == pytest.approx(0.5)


def test_pvalue_normal_quantile():
    p = pvalue_normal(1.645, 0.0, 1.0)
    assert p == pytest.approx(0.05, abs=1e-4)


def test_pvalue_normal_upper_tail_mirrors_lower():
    # far-tail p-values keep their relative accuracy instead of rounding
    # to 1 - ndtr(z) = 0 (from z = 9 on); Phi(-37) = 5.7e-300 is still a
    # normal double, Phi(-40) underflows to 0 in any formula
    for z in (0.5, 6.0, 9.0, 37.0):
        upper = pvalue_normal(2.0 * z + 1.0, 1.0, 4.0)
        assert upper == ndtr(-z) > 0.0


def test_pvalue_normal_degenerate_convention():
    assert pvalue_normal(-1.0, 0.0, 0.0) == 1.0
    assert pvalue_normal(1.0, 0.0, 0.0) == 0.0
    assert pvalue_normal(0.0, 0.0, 0.0) == 1.0


# -- exact enumeration -------------------------------------------------------

def test_exact_single_pair():
    assert pvalue_exact(np.array([1.0]), 1.0, 1.0) == 0.5


def test_exact_two_pairs():
    assert pvalue_exact(np.array([1.0, 1.0]), 2.0, 1.0) == 0.25


def test_exact_matches_full_enumeration_at_gamma_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = rng.normal(size=8)
        d[rng.random(8) < 0.3] = 0.0
        t = float(rng.normal())
        assert pvalue_exact(d, t, 1.0) == pytest.approx(
            enumerate_randomization_p(d, t), abs=1e-12
        )


def test_exact_cap():
    with pytest.raises(ValueError, match="exceed the exact cap of 20"):
        pvalue_exact(np.ones(21), 0.0, 1.0)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_exact_vs_montecarlo(gamma):
    rng = np.random.default_rng(2)
    d = rng.normal(size=12)
    t = float(np.abs(d).sum() * 0.25)
    exact = pvalue_exact(d, t, gamma)
    n = 10 ** 6
    mc = pvalue_montecarlo(d, t, gamma, n_draws=n, seed=5)
    se = math.sqrt(exact * (1 - exact) / n)
    assert abs(mc - exact) <= 3 * se + 1e-12


def test_montecarlo_deterministic():
    d = np.random.default_rng(3).normal(size=10)
    a = pvalue_montecarlo(d, 0.5, 1.5, n_draws=20_000, seed=9)
    b = pvalue_montecarlo(d, 0.5, 1.5, n_draws=20_000, seed=9)
    assert a == b


def test_montecarlo_symmetric_center():
    d = np.array([1.0, -1.0, 2.0, -2.0])
    exact = pvalue_exact(d, 0.0, 1.0)
    mc = pvalue_montecarlo(d, 0.0, 1.0, n_draws=200_000, seed=4)
    assert exact > 0.5  # tie mass included
    assert mc == pytest.approx(exact, abs=0.01)


# -- direction handling ------------------------------------------------------

GRID = (1.0, 2.0, 3.0)
GAMMAS = (1.0, 1.7)


def _overall(include_ppw):
    return lambda s, d, _: [
        overall_test(s, GRID, g, include_ppw=include_ppw,
                     direction=d).p_value for g in GAMMAS]


def _cli(score):
    def run(sample, direction, tmp_path):
        data, out = tmp_path / f"{direction}.csv", tmp_path / f"{direction}.json"
        write_csv(data, sample)
        tau = ["--tau", "3"] if score == "pseudo" else []
        assert main(["test", str(data), "--score", score, "--direction", direction,
                     "--gamma", "1.3", "--out", str(out), *tau]) == 0
        return json.loads(out.read_text())["result"]["p_value"]
    return run


# name -> (pairs, run(sample, direction, tmp_path)); exact needs <= 20 pairs
ORIENTED = {
    "time_specific_normal": (60, lambda s, d, _: [
        time_specific_test(s, 3.0, g, "normal", d).p_value for g in GAMMAS]),
    "time_specific_exact": (20, lambda s, d, _: [
        time_specific_test(s, 3.0, g, "exact", d).p_value for g in GAMMAS]),
    "time_specific_montecarlo": (60, lambda s, d, _: [
        time_specific_test(s, 3.0, g, "montecarlo", d, n_draws=20_000,
                           seed=4).p_value for g in GAMMAS]),
    "ppw": (60, lambda s, d, _: [ppw_test(s, g, d).p_value for g in GAMMAS]),
    "overall_normal": (60, _overall(False)),
    "overall_normal_ppw": (60, _overall(True)),
    # alpha = 0.4 lets both searches bisect on this small sample
    "sensitivity_tau": (60, lambda s, d, _: sensitivity_value(
        s, tau=3.0, alpha=0.4, direction=d)),
    "sensitivity_grid": (60, lambda s, d, _: sensitivity_value(
        s, grid=GRID, alpha=0.4, direction=d)),
    "cli_pseudo": (60, _cli("pseudo")),
    "cli_logrank": (60, _cli("logrank")),
    "cli_pw": (60, _cli("pw")),
}


@pytest.mark.parametrize("n_pairs, run", ORIENTED.values(), ids=list(ORIENTED))
def test_sign_flip_antisymmetry(n_pairs, run, tmp_path):
    # harm on a sample whose treated units fare worse is benefit on the
    # sample with every assignment flipped: the same sums, negated, so the
    # p-values agree bit for bit
    base = simulated_sample(n_pairs, "ph", seed=3)
    worse = type(base)(base.times, base.events, -base.assignment)
    assert run(worse, "harm", tmp_path) == run(base, "benefit", tmp_path)


def test_tail_names_rejected():
    sample = simulated_sample(30, "ph", seed=3)
    for call in (lambda: time_specific_test(sample, 3.0, direction="lower"),
                 lambda: ppw_test(sample, direction="upper"),
                 lambda: overall_test(sample, GRID, direction="lower"),
                 lambda: sensitivity_value(sample, tau=3.0, direction="lower")):
        with pytest.raises(ValueError, match="benefit"):
            call()


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
        normal = time_specific_test(sample, 3.0, gamma, "normal", "benefit")
        assert 0.01 <= normal.p_value <= 0.2
        mc = time_specific_test(sample, 3.0, gamma, "montecarlo", "benefit",
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


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_sensitivity_value_rejects_bad_tol(tol):
    sample = simulated_sample(200, "ph", seed=3)
    with pytest.raises(ValueError, match="tol must be > 0"):
        sensitivity_value(sample, tau=3.0, tol=tol)


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


@pytest.mark.parametrize("scenario, seed, gamma_max", [
    ("ph", 0, 10.0),
    ("crossing", 2, 10.0),
    ("late_div", 2, 10.0),
    ("no_effect", 0, 10.0),
    # gamma_max below ph seed 0's value 1.3771..., exactly on it, and at 1
    ("ph", 0, 1.2),
    ("ph", 0, 1.377105712890625),
    ("ph", 0, 1.0),
])
def test_grid_sensitivity_value_equals_always_integrating_search(scenario, seed,
                                                                gamma_max):
    sample = simulated_sample(300, scenario, seed=seed)
    grid = (1.0, 2.0, 3.0, 4.0, 5.0)

    def p_at(gamma, alpha=None):  # the integrated p, whatever alpha is
        return overall_test(sample, grid, gamma=gamma, include_ppw=True).p_value

    assert (sensitivity_value(sample, grid=grid, include_ppw=True, gamma_max=gamma_max)
            == _search(p_at, 0.05, 1e-3, gamma_max))
