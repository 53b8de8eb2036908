import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from pairedsurv import (
    DiffMatrix,
    PairedSample,
    ScenarioSpec,
    StudyConfig,
    build_sample,
    closed_test,
    diff_matrix,
    generate_pairs,
    max_test,
    mvn_cdf,
    overall_test,
    pair_differences,
    power_study,
    pvalue_montecarlo,
    score_test,
    sensitivity_value,
    write_csv,
)
from pairedsurv import sensitivity
from pairedsurv.cli import main
from pairedsurv.errors import (DegenerateColumnWarning, as_grid, check_alpha, check_gamma,
                               check_seed)
from pairedsurv.sensitivity import (_column_sums, _column_tests, _normal_tails, _null_moments,
                                    _pvalue_exact, _search)

from conftest import fix_workers, montecarlo_one_shot, simulated_sample


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
    # the result reports sum_i d_i V_i itself, whichever tail it tests
    for direction in ("benefit", "harm"):
        res = score_test(five_pairs, "pseudo", 1.3, direction=direction)
        assert res.statistic == pytest.approx(-1.0, abs=1e-12)


def test_t_statistic_arithmetic():
    sample = build_sample([
        ("a", 1, True, 1.0, True), ("a", 2, False, 2.0, True),
        ("b", 1, False, 3.0, True), ("b", 2, True, 4.0, True),
    ])
    d = np.array([1.0, -2.0])
    assert _column_tests(_column_sums(d, sample.assignment), 1.0, 1.0)[0] == 3.0
    assert _column_tests(_column_sums(d, sample.assignment), 1.0, -1.0)[0] == -3.0
    # columns of a matrix are tested one by one
    D = np.array([[1.0, 0.5], [-2.0, 0.5]])
    t, mean, variance, p = _column_tests(_column_sums(D, sample.assignment), 2.0, 1.0)
    assert t.tolist() == [3.0, 0.0]
    for col in range(2):
        one = _column_tests(_column_sums(D[:, col], sample.assignment), 2.0, 1.0)
        assert [one[1], one[2], one[3]] == [mean[col], variance[col], p[col]]
    # each sample of a stack (R, I, L) is tested as on its own, bit for bit,
    # which the power study's counts rely on
    diffs = [diff_matrix(simulated_sample(300, scenario, seed=seed), (0.5, 1.0, 2.0, 3.0),
                         include_ppw=True)
             for scenario, seed in (("ph", 1), ("late_div", 2), ("crossing", 3))]
    assignments = np.stack([diff.assignment for diff in diffs])
    # row-major rows, and column-major ones as the power study's kernel lays out
    for stack in (np.stack([diff.D for diff in diffs]),
                  np.stack([diff.D.T for diff in diffs]).transpose(0, 2, 1)):
        for gamma, orient in ((1.0, -1.0), (1.5, 1.0)):
            stacked = _column_tests(_column_sums(stack, assignments), gamma, orient)
            for r, diff in enumerate(diffs):
                one = _column_tests(_column_sums(diff.D, diff.assignment), gamma, orient)
                for got, want in zip(stacked, one):
                    assert got[r].tobytes() == want.tobytes()


def _moments(d, gamma):
    """``_null_moments`` of one score vector, as floats, through ``_column_sums``."""
    d = np.asarray(d, dtype=float)
    return tuple(map(float, _null_moments(*_column_sums(d, np.ones(d.size))[1:], gamma)))


def test_null_moments_randomization_case():
    mean, var = _moments(np.array([1.0, -2.0, 0.5]), gamma=1.0)
    assert mean == 0.0
    assert var == pytest.approx(1.0 + 4.0 + 0.25)


def test_null_moments_hand_example():
    mean, var = _moments(np.array([1.0, 1.0]), gamma=3.0)
    assert mean == pytest.approx(1.0)
    assert var == pytest.approx(1.5)


def test_null_moments_gamma_limit():
    d = np.array([0.3, -0.7, 1.1])
    mean, var = _moments(d, gamma=1e9)
    assert mean == pytest.approx(np.abs(d).sum(), rel=1e-6)
    assert var == pytest.approx(0.0, abs=1e-6)


def test_gamma_below_one_rejected():
    with pytest.raises(ValueError):
        _moments(np.array([1.0]), gamma=0.9)


# -- normal tail -----------------------------------------------------------

def _normal_p(t, mean, variance):
    """The tail of ``_normal_tails`` at one (t, mean, variance), as a float."""
    return float(_normal_tails(t, mean, variance)[1])


def test_pvalue_normal_center():
    assert _normal_p(2.0, 2.0, 4.0) == pytest.approx(0.5)
    assert _normal_p(-2.0, -2.0, 4.0) == pytest.approx(0.5)


def test_pvalue_normal_quantile():
    p = _normal_p(1.645, 0.0, 1.0)
    assert p == pytest.approx(0.05, abs=1e-4)


def test_pvalue_normal_upper_tail_mirrors_lower():
    # far-tail p-values keep their relative accuracy instead of rounding
    # to 1 - ndtr(z) = 0 (from z = 9 on); Phi(-37) = 5.7e-300 is still a
    # normal double, Phi(-40) underflows to 0 in any formula
    for z in (0.5, 6.0, 9.0, 37.0):
        upper = _normal_p(2.0 * z + 1.0, 1.0, 4.0)
        assert upper == ndtr(-z) > 0.0


def test_pvalue_normal_degenerate_convention():
    assert _normal_p(-1.0, 0.0, 0.0) == 1.0
    assert _normal_p(1.0, 0.0, 0.0) == 0.0
    assert _normal_p(0.0, 0.0, 0.0) == 1.0


# -- exact enumeration -------------------------------------------------------

def test_exact_single_pair():
    assert _pvalue_exact(np.array([1.0]), 1.0, 1.0) == 0.5


def test_exact_two_pairs():
    assert _pvalue_exact(np.array([1.0, 1.0]), 2.0, 1.0) == 0.25


def test_exact_matches_full_enumeration_at_gamma_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = rng.normal(size=8)
        d[rng.random(8) < 0.3] = 0.0
        t = float(rng.normal())
        assert _pvalue_exact(d, t, 1.0) == pytest.approx(
            enumerate_randomization_p(d, t), abs=1e-12
        )


def test_exact_cap():
    with pytest.raises(ValueError, match="exceed the exact cap of 20"):
        _pvalue_exact(np.ones(21), 0.0, 1.0)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_exact_vs_montecarlo(gamma):
    rng = np.random.default_rng(2)
    d = rng.normal(size=12)
    t = float(np.abs(d).sum() * 0.25)
    exact = _pvalue_exact(d, t, gamma)
    n = 10 ** 6
    mc = pvalue_montecarlo(d, t, gamma, n_draws=n, seed=5)
    se = math.sqrt(exact * (1 - exact) / n)
    assert abs(mc - exact) <= 3 * se + 1e-12


def test_montecarlo_deterministic():
    d = np.random.default_rng(3).normal(size=10)
    a = pvalue_montecarlo(d, 0.5, 1.5, n_draws=20_000, seed=9)
    b = pvalue_montecarlo(d, 0.5, 1.5, n_draws=20_000, seed=9)
    # the seed is SeedSequence entropy, so SeedSequence(9) is the stream of 9
    c = pvalue_montecarlo(d, 0.5, 1.5, n_draws=20_000, seed=np.random.SeedSequence(9))
    assert a == b == c


def test_montecarlo_symmetric_center():
    d = np.array([1.0, -1.0, 2.0, -2.0])
    exact = _pvalue_exact(d, 0.0, 1.0)
    mc = pvalue_montecarlo(d, 0.0, 1.0, n_draws=200_000, seed=4)
    assert exact > 0.5  # tie mass included
    assert mc == pytest.approx(exact, abs=0.01)


def _oracle_cases():
    # ties (rounded scores and t), zero pairs, t within two null sd of the
    # mean, draw counts that are no multiple of a buffer's draws, and counts
    # below the worker count
    rng = np.random.default_rng(19)
    for case in range(12):
        size, digits = int(rng.integers(1, 120)), int(rng.integers(0, 3))
        d = rng.normal(size=size).round(digits)
        d[rng.random(size) < 0.2] = 0.0
        gamma = float(rng.choice([1.0, 1.25, 3.0]))
        mean, variance = _moments(d, gamma)
        t = round(mean + rng.uniform(-2.0, 2.0) * math.sqrt(variance), digits)
        n_draws = int(rng.choice([1, 2, int(rng.integers(3, 20_000))]))
        yield d, t, gamma, n_draws, case


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_montecarlo_matches_one_shot_simulator(monkeypatch, workers):
    # the threaded simulator reads the same stream as one rng.random call,
    # so the p-values agree bit for bit whatever the worker count
    fix_workers(monkeypatch, workers)
    for d, t, gamma, n_draws, seed in _oracle_cases():
        assert pvalue_montecarlo(d, t, gamma, n_draws, seed) == montecarlo_one_shot(
            d, t, gamma, n_draws, seed)
    d = np.random.default_rng(4).normal(size=300)
    assert pvalue_montecarlo(d, 5.0, 1.25, 3_001, 8) == montecarlo_one_shot(
        d, 5.0, 1.25, 3_001, 8)
    # a buffer smaller than one draw still holds that draw
    monkeypatch.setattr(sensitivity, "_SIGN_BUFFER", 64)
    for size in (20, 100):
        assert pvalue_montecarlo(d[:size], 1.0, 1.25, 501, 3) == montecarlo_one_shot(
            d[:size], 1.0, 1.25, 501, 3)


def test_montecarlo_monotone_in_gamma_and_t():
    # one seed gives the same uniforms at every gamma, and a larger
    # threshold only turns signs from - to +, so p never falls as gamma
    # rises or as t falls
    rng = np.random.default_rng(23)
    for size in (1, 7, 40, 301):
        d = rng.normal(size=size).round(1)
        ts = np.sort(rng.normal(0.0, 2.0 * math.sqrt(size), 8))
        p = np.array([[pvalue_montecarlo(d, t, g, n_draws=2_000, seed=size) for t in ts]
                      for g in (1.0, 1.01, 1.25, 2.0, 3.0, 50.0)])
        assert (np.diff(p, axis=0) >= 0.0).all()
        assert (np.diff(p, axis=1) <= 0.0).all()


@pytest.mark.parametrize("gamma", [1.0, 1.25, 3.0])
def test_montecarlo_one_pair_is_the_share_below_threshold(gamma):
    # with one pair, draw j is the low half of raw word j: T = +1 exactly
    # when that uniform lies below ceil(2**32 gamma / (1 + gamma))
    n = 30_001
    u = np.random.PCG64(6).random_raw(n) & 0xFFFFFFFF
    threshold = math.ceil(2 ** 32 * Fraction(gamma) / (1 + Fraction(gamma)))
    assert pvalue_montecarlo([1.0], 1.0, gamma, n_draws=n, seed=6) == np.mean(u < threshold)
    assert pvalue_montecarlo([1.0], -1.0, gamma, n_draws=n, seed=6) == 1.0


def test_montecarlo_sign_probability_rounds_up():
    # the + probability is gamma/(1+gamma) rounded up to a multiple of
    # 2**-32, so the simulated tail is conservative; the grid holds gammas
    # whose rounded double gamma/(1+gamma) is a multiple of 2**-32 below
    # the exact ratio, e.g. 1.048
    grid = np.concatenate([np.linspace(1.0, 10.0, 9_001), np.geomspace(10.0, 1e12, 201),
                           [1.048, 1.56, 2.2, 1e300]])
    for gamma in map(float, grid):
        exact = Fraction(gamma) / (1 + Fraction(gamma))
        q = Fraction(sensitivity._plus_threshold(gamma), 2 ** 32)
        assert exact <= q < exact + Fraction(1, 2 ** 32)
        assert q >= gamma / (1.0 + gamma)
    assert sensitivity._plus_threshold(1.0) == 2 ** 31


@pytest.mark.parametrize("make_seed", [
    lambda: np.random.default_rng(12), lambda: np.random.PCG64(12),
], ids=["Generator", "BitGenerator"])
def test_montecarlo_refuses_generator_seed(make_seed):
    # the seed is SeedSequence entropy, never a stream to draw on: two
    # max_test calls on one Generator used to give two p-values
    sample = simulated_sample(50, "ph", seed=1)
    for call in (
        lambda seed: pvalue_montecarlo([0.3, -0.2, 0.5], 0.1, n_draws=100, seed=seed),
        lambda seed: mvn_cdf([0.5, 0.5], [[1.0, 0.3], [0.3, 1.0]], seed=seed),
        lambda seed: mvn_cdf([0.5], [[1.0]], seed=seed),
        lambda seed: generate_pairs(10, ScenarioSpec("ph"), seed),
    ):
        with pytest.raises(TypeError):
            call(make_seed())
    # a max test's QMC seed is a whole number, checked on entry
    with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
        max_test(diff_matrix(sample, (1.0, 2.0, 3.0)), seed=make_seed())


def _all_degenerate(sample):
    # a grid time before any event: every column has zero dispersion
    with pytest.warns(DegenerateColumnWarning):
        return diff_matrix(sample, [1e-6])


@pytest.mark.parametrize("call, why", [
    (lambda s: sensitivity_value(diff_matrix(s, [3.0]), alpha=0.001, mvn_tol=0),
     "mvn_tol must be > 0 and finite"),
    (lambda s: sensitivity_value(diff_matrix(s, [3.0]), alpha=0.001, gamma_max=0.5),
     "gamma must be a finite real >= 1"),
    (lambda s: sensitivity_value(diff_matrix(s, [3.0]), alpha=0.001, gamma_max=math.nan),
     "gamma must be a finite real >= 1"),
    (lambda s: max_test(_all_degenerate(s), tol=0), "tol must be > 0 and finite"),
    (lambda s: closed_test(_all_degenerate(s), tol=0), "tol must be > 0 and finite"),
    (lambda s: score_test(s, "pseudo", 3.0, method="normal", n_draws=0),
     "n_draws must be a whole number >= 1"),
    (lambda s: closed_test(diff_matrix(s, (1.0, 2.0)), seed=1.5),
     "seed must be a whole number >= 0"),
    (lambda s: closed_test(diff_matrix(s, (1.0, 2.0)), seed=True),
     "seed must be a whole number >= 0"),
], ids=["one-column mvn_tol", "already sensitive gamma_max below 1",
        "already sensitive gamma_max nan", "degenerate max_test tol",
        "degenerate closed_test tol", "normal-method n_draws", "fractional closed seed",
        "bool closed seed"])
def test_bad_argument_refused_whatever_the_path(call, why):
    # each call took a path that skipped the check and returned a result:
    # one column, a sample already sensitive at gamma = 1 (alpha = 0.001),
    # all-degenerate columns, the normal method, the derived subset seeds
    sample = simulated_sample(40, "no_effect", seed=13)
    with pytest.raises(ValueError, match=why):
        call(sample)


@pytest.mark.parametrize("call, why", [
    (lambda s: max_test(diff_matrix(s, (1.0, 2.0, 3.0)), gamma=True),
     "gamma must be a finite real >= 1, got True"),
    (lambda s: max_test(diff_matrix(s, (1.0, 2.0, 3.0)), gamma="1.5"),
     "gamma must be a finite real >= 1, got '1.5'"),
    (lambda s: check_alpha("0.05"), "alpha must lie in (0, 1), got '0.05'"),
    (lambda s: closed_test(diff_matrix(s, (1.0, 2.0)), alpha=np.True_),
     "alpha must lie in (0, 1), got np.True_"),
    (lambda s: max_test(diff_matrix(s, (1.0, 2.0)), tol=True),
     "tol must be > 0 and finite, got True"),
    (lambda s: score_test(s, "pseudo", True), "tau must be >= 0, got True"),
    (lambda s: score_test(s, "pseudo", "3"), "tau must be >= 0, got '3'"),
    (lambda s: as_grid(["1", "2"]), "grid times must be real numbers, got ['1', '2']"),
    (lambda s: diff_matrix(s, [True]), "grid times must be real numbers, got [True]"),
    (lambda s: diff_matrix(s, np.array([1.0, 2.0]) > 0),
     "grid times must be real numbers"),
], ids=["bool gamma", "string gamma", "string alpha", "numpy bool alpha", "bool tol",
        "bool tau", "string tau", "string grid", "bool grid", "numpy bool grid"])
def test_real_valued_rules_refuse_bools_and_strings(call, why):
    # float() turned each of these into a number: gamma=True ran at 1,
    # gamma="1.5" at 1.5, and as_grid(["1", "2"]) gave (1.0, 2.0)
    sample = simulated_sample(40, "ph", seed=13)
    with pytest.raises(ValueError, match=re.escape(why)):
        call(sample)


@pytest.mark.parametrize("call, why", [
    (lambda: pvalue_montecarlo([1.0, 2.0], "1.5"), "t must be finite, got '1.5'"),
    (lambda: pvalue_montecarlo([1.0, 2.0], np.True_), "t must be finite, got np.True_"),
    (lambda: pvalue_montecarlo([True, 2.0], 1.0), "scores must be real numbers, got [True, 2.0]"),
    (lambda: pvalue_montecarlo(np.array([1.0, 2.0]) > 0, 1.0), "scores must be real numbers"),
    (lambda: pvalue_montecarlo(["1", 2], 1.0), "scores must be real numbers, got ['1', 2]"),
    (lambda: pvalue_montecarlo([1.0, 2.0], True), "t must be finite, got True"),
], ids=["string t", "bool t", "bool in Monte Carlo scores", "bool Monte Carlo scores array",
        "string Monte Carlo scores", "bool Monte Carlo t"])
def test_tails_refuse_bools_and_strings(call, why):
    # numpy would turn each into a number: "1.5" into 1.5, [True, 2.0] into
    # [1.0, 2.0]
    with pytest.raises(ValueError, match=re.escape(why)):
        call()


def test_tails_take_numpy_and_python_numbers_alike():
    p = _normal_p(1.5, 0.0, 1.0)
    assert _normal_p(np.float64(1.5), np.int64(0), 1) == p
    assert _normal_tails(np.array([1.5, 1.5]), np.zeros(2), np.ones(2))[1].tolist() == [p, p]
    p = pvalue_montecarlo([1.0, 2.0], 1.0, n_draws=1_000)
    assert pvalue_montecarlo(np.array([1, 2]), np.float32(1.0), n_draws=1_000) == p
    assert pvalue_montecarlo((1, np.int64(2)), np.int64(1), n_draws=1_000) == p


@pytest.mark.parametrize("call, why", [
    (lambda: check_gamma(10 ** 400), "gamma must be a finite real >= 1, got 1000"),
    (lambda: as_grid([1, 10 ** 400]), "grid times must be real numbers, got [1, 1000"),
    (lambda: pvalue_montecarlo([1.0, 2.0], 10 ** 400), "t must be finite, got 1000"),
    (lambda: check_seed(Fraction(10 ** 400)),
     "seed must be a whole number >= 0, got Fraction(1000"),
], ids=["gamma", "grid", "Monte Carlo t", "fraction seed"])
def test_rules_refuse_an_int_too_large_for_a_float(call, why):
    # each raised OverflowError from float()
    with pytest.raises(ValueError, match=re.escape(why)):
        call()


def test_score_test_records_the_checked_tau():
    sample = simulated_sample(40, "ph", seed=13)
    for tau in (3, np.int64(3), 3.0):
        res = score_test(sample, "pseudo", tau)
        assert type(res.tau) is float and res.tau == 3.0
        assert res == score_test(sample, "pseudo", 3.0)
    assert score_test(sample, "pw").tau is None


@pytest.mark.parametrize("call", [
    lambda s: max_test(_all_degenerate(s), seed=1.5),
    lambda s: max_test(diff_matrix(s, (1.0, 2.0, 3.0)), seed=1.5),
    lambda s: max_test(diff_matrix(s, [3.0]), seed=True),
    lambda s: overall_test(s, (1.0, 2.0, 3.0), seed=-1),
    lambda s: sensitivity_value(diff_matrix(s, [3.0]), seed=1.5),
    lambda s: sensitivity_value(diff_matrix(s, (1.0, 2.0, 3.0)), seed=[1, 2]),
], ids=["degenerate max_test", "three-column max_test", "bool seed", "overall_test",
        "one-column sensitivity_value", "sequence seed"])
def test_qmc_seed_checked_on_entry(call):
    # a seed reached numpy only when the call integrated: p = 1 on degenerate
    # columns and a value from one column, numpy's TypeError on three
    with pytest.raises(ValueError, match="seed must be a whole number >= 0, got"):
        call(simulated_sample(40, "ph", seed=13))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_montecarlo_transient_memory(monkeypatch, workers):
    # each worker reuses one float buffer of 2**17 signs and reads 2**16 raw
    # words per fill; the one-shot chunks held 68 MiB at I=300
    fix_workers(monkeypatch, workers)
    d = np.random.default_rng(7).normal(size=300)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pvalue_montecarlo(d, 5.0, 1.25, n_draws=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 8 * 2 ** 20


@pytest.mark.parametrize("call", [
    lambda: pvalue_montecarlo([0.3, -0.2, 0.5, 0.1], math.nan),
    lambda: pvalue_montecarlo([0.3, -0.2, 0.5, 0.1], math.inf),
    lambda: pvalue_montecarlo([0.3, math.nan], 0.1),
    lambda: pvalue_montecarlo([0.3, -math.inf], 0.1),
    lambda: pvalue_montecarlo([0.3, -0.2], -math.inf),
    lambda: pvalue_montecarlo(np.array([math.inf, 0.3]), 0.1),
    lambda: pvalue_montecarlo([math.inf, 0.3], 0.1),
    lambda: pvalue_montecarlo(np.array([0.3, math.nan]), 0.1),
    lambda: pvalue_montecarlo(np.array([0.3, -math.inf]), 0.1),
])
def test_tails_reject_non_finite_input(call):
    # t, a list of scores and an array of scores (two paths through
    # errors.check_reals), each nan, inf and -inf: a NaN compares false
    # everywhere and used to read as p = 0
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("n_draws", [2.5, True, math.inf, math.nan, "100"])
def test_montecarlo_draws_must_be_whole(n_draws):
    with pytest.raises(ValueError, match="n_draws"):
        pvalue_montecarlo([0.3, -0.2, 0.5], 0.1, n_draws=n_draws)


def test_montecarlo_accepts_whole_float_draws():
    d = [0.3, -0.2, 0.5, 0.1]
    assert pvalue_montecarlo(d, 0.1, n_draws=1e4) == pvalue_montecarlo(
        d, 0.1, n_draws=10_000)


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
        score_test(s, "pseudo", 3.0, g, "normal", d).p_value for g in GAMMAS]),
    "time_specific_exact": (20, lambda s, d, _: [
        score_test(s, "pseudo", 3.0, g, "exact", d).p_value for g in GAMMAS]),
    "time_specific_montecarlo": (60, lambda s, d, _: [
        score_test(s, "pseudo", 3.0, g, "montecarlo", d, n_draws=20_000,
                   seed=4).p_value for g in GAMMAS]),
    "ppw": (60, lambda s, d, _: [score_test(s, "pw", gamma=g, direction=d).p_value
                                  for g in GAMMAS]),
    "overall_normal": (60, _overall(False)),
    "overall_normal_ppw": (60, _overall(True)),
    # alpha = 0.4 lets both searches bisect on this small sample
    "sensitivity_tau": (60, lambda s, d, _: sensitivity_value(
        diff_matrix(s, [3.0]), alpha=0.4, direction=d)),
    "sensitivity_grid": (60, lambda s, d, _: sensitivity_value(
        diff_matrix(s, GRID), alpha=0.4, direction=d)),
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
    for call in (lambda: score_test(sample, "pseudo", 3.0, direction="lower"),
                 lambda: score_test(sample, "pw", direction="upper"),
                 lambda: overall_test(sample, GRID, direction="lower"),
                 lambda: sensitivity_value(diff_matrix(sample, [3.0]), direction="lower")):
        with pytest.raises(ValueError, match="benefit"):
            call()


# -- time-specific test -------------------------------------------------------

def test_tau_zero_p_one():
    sample = simulated_sample(50, "ph", seed=1)
    res = score_test(sample, "pseudo", 0.0, 1.0)
    assert res.p_value == 1.0


def test_tau_zero_p_one_montecarlo():
    # every difference is zero, so no pair draws a sign
    sample = simulated_sample(50, "ph", seed=1)
    assert score_test(sample, "pseudo", 0.0, method="montecarlo").p_value == 1.0


@pytest.mark.parametrize("t, p", [(0.0, 1.0), (1.0, 0.0)])
def test_montecarlo_all_zero_scores(t, p):
    assert pvalue_montecarlo(np.zeros(4), t) == p


def test_tails_ignore_the_sign_of_the_scores():
    rng = np.random.default_rng(4)
    d = rng.normal(size=9)
    d[[2, 5]] = 0.0
    for t in (-1.0, 0.3, 2.0):
        for g in (1.0, 1.7):
            assert _pvalue_exact(-d, t, g) == _pvalue_exact(d, t, g)
            assert (pvalue_montecarlo(-d, t, g, n_draws=5_000, seed=3)
                    == pvalue_montecarlo(d, t, g, n_draws=5_000, seed=3))


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
    assert _moments(d, gamma) == pytest.approx(_moments(padded_d, gamma), rel=1e-14)
    assert _pvalue_exact(d, t, gamma) == pytest.approx(
        _pvalue_exact(padded_d, t, gamma), abs=1e-12
    )
    assert pvalue_montecarlo(d, t, gamma, 5000, seed=3) == pvalue_montecarlo(
        padded_d, t, gamma, 5000, seed=3
    )


def test_worst_case_dominance_and_monotone_in_gamma():
    for seed in range(5):
        sample = simulated_sample(70, "early_div", seed=seed)
        gammas = np.arange(1.0, 2.01, 0.1)
        pvals = [score_test(sample, "pseudo", 3.0, g).p_value for g in gammas]
        assert all(b >= a - 1e-12 for a, b in zip(pvals, pvals[1:]))


@pytest.mark.parametrize("gamma", [1.4e154, 1e300, sys.float_info.max])
def test_gamma_too_large_to_square_gives_p_one(gamma, tmp_path):
    # (1 + gamma)^2 overflowed a Python float from gamma = 1.34e154 on, and
    # every worst-case test raised OverflowError; p rises with gamma and is
    # 1.0 at 1e150 already, where the benefit statistic is below sum |d|
    small, sample = simulated_sample(20, "ph", seed=3), simulated_sample(300, "ph", seed=1)
    for s, methods in ((small, ("normal", "exact", "montecarlo")), (sample, ("normal",))):
        d = pair_differences(s, "pseudo", 3.0)
        assert -(d @ s.assignment) < np.abs(d).sum()
        for g, method in itertools.product((1e150, gamma), methods):
            assert score_test(s, "pseudo", 3.0, g, method, n_draws=1_000).p_value == 1.0
    diff = diff_matrix(sample, (1.0, 2.0, 3.0, 4.0, 5.0))
    assert max_test(diff, gamma).p_value == 1.0
    assert set(closed_test(diff, gamma=gamma).adjusted_p.values()) == {1.0}
    # a search that evaluates gamma_max finds the crossing of the default range
    found, wide = sensitivity_value(diff), sensitivity_value(diff, gamma_max=gamma)
    assert not (found.already_sensitive or found.exceeded_max or wide.exceeded_max)
    assert abs(wide.value - found.value) <= 1e-3
    config = StudyConfig(scenarios=(ScenarioSpec("ph"),), pairs=100, replications=4,
                         grid=(1.0, 2.0, 3.0), seed=1, gammas=(gamma,))
    assert {row.rejections for row in power_study(config).rows} == {0}
    data = tmp_path / "sample.csv"
    write_csv(data, sample)
    for command in (["test", "--tau", "3"], ["overall", "--grid", "1,2,3"],
                    ["closed", "--grid", "1,2,3"]):
        assert main([command[0], str(data), *command[1:], "--gamma", repr(gamma)]) == 0
    assert main(["sens", str(data), "--grid", "1,2,3", "--search", "--gamma-max", repr(gamma),
                 "--gamma-grid", f"1,{gamma!r}"]) == 0


def test_normal_close_to_exact_in_clt_regime():
    # I=500 samples whose p sits in [0.01, 0.2]: normal vs simulated
    # worst-case tails agree to 0.01 there
    checked = 0
    for seed, gamma in ((3, 1.2), (3, 1.3), (4, 1.3), (6, 1.1), (7, 1.3), (8, 1.2)):
        sample = simulated_sample(500, "ph", seed=seed)
        normal = score_test(sample, "pseudo", 3.0, gamma, "normal", "benefit")
        assert 0.01 <= normal.p_value <= 0.2
        mc = score_test(sample, "pseudo", 3.0, gamma, "montecarlo", "benefit",
                        n_draws=400_000, seed=11)
        assert abs(normal.p_value - mc.p_value) <= 0.01
        checked += 1
    assert checked == 6


# -- sensitivity value ---------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
def test_sensitivity_value_alpha_outside_unit_interval_refused(alpha):
    sample = simulated_sample(30, "ph", seed=1)
    for grid in ((3.0,), (2.0, 3.0)):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            sensitivity_value(diff_matrix(sample, grid), alpha=alpha)


def test_sensitivity_value_brackets_alpha():
    sample = simulated_sample(400, "ph", seed=9)
    sv = sensitivity_value(diff_matrix(sample, [4.0]), alpha=0.05, tol=1e-3)
    assert not sv.already_sensitive and not sv.exceeded_max
    lo = score_test(sample, "pseudo", 4.0, sv.value - 1e-3).p_value
    hi = score_test(sample, "pseudo", 4.0, sv.value + 1e-3).p_value
    assert lo <= 0.05 <= hi


def test_sensitivity_value_already_sensitive():
    sample = simulated_sample(40, "no_effect", seed=13)
    sv = sensitivity_value(diff_matrix(sample, [3.0]), alpha=0.001)
    assert sv.already_sensitive and sv.value == 1.0


def test_sensitivity_value_exceeds_max():
    sample = simulated_sample(400, "ph", seed=9)
    sv = sensitivity_value(diff_matrix(sample, [4.0]), alpha=0.05, gamma_max=1.0001)
    assert sv.exceeded_max and sv.value == 1.0001


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_sensitivity_value_rejects_bad_tol(tol):
    sample = simulated_sample(200, "ph", seed=3)
    with pytest.raises(ValueError, match="tol must be > 0"):
        sensitivity_value(diff_matrix(sample, [3.0]), tol=tol)


def test_search_ends_at_adjacent_floats():
    # a tolerance below one ulp of gamma: once lo and hi are adjacent floats
    # the midpoint is an endpoint, and the search must stop there
    sample = generate_pairs(300, ScenarioSpec("ph"), 1)
    calls = []

    def p_at(gamma, alpha=None):
        calls.append(gamma)
        if len(calls) > 200:
            raise AssertionError("the search did not end")
        return score_test(sample, "pseudo", 3.0, gamma).p_value

    tight = _search(p_at, 0.05, 1e-20, 10.0)
    coarse = sensitivity_value(diff_matrix(sample, [3.0]))
    assert round(coarse.value, 4) == 1.1733
    assert not (tight.already_sensitive or tight.exceeded_max)
    assert coarse.value - 0.5e-3 <= tight.value <= coarse.value + 0.5e-3


def test_sensitivity_value_overall_grid_target():
    sample = simulated_sample(400, "early_div", seed=4)
    sv = sensitivity_value(diff_matrix(sample, (1.0, 2.0, 3.0)), alpha=0.05, tol=1e-3)
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

    assert (sensitivity_value(diff_matrix(sample, grid, include_ppw=True), gamma_max=gamma_max)
            == _search(p_at, 0.05, 1e-3, gamma_max))


# -- level under a biased assignment -------------------------------------------

@pytest.mark.filterwarnings("ignore::pairedsurv.errors.DegenerateColumnWarning")
def test_every_gamma_decision_holds_its_level_under_a_biased_assignment():
    # Under the sharp null the outcomes do not depend on the assignment, so a
    # no_effect sample can be given any within-pair treatment law.  In each
    # pair the unit a rule favours is treated with probability
    # gamma / (1 + gamma), a tie at 1/2: the sensitivity model at its bound,
    # by four fixed rules (the longer observed time, the sign of -D at
    # tau = 1 or at tau = 5, and at a random column per pair).  Every
    # decision at gamma must then reject at most alpha of the time; each
    # count is checked against alpha + 3 SE.  160 samples of 60 pairs
    # (generate_pairs seeds 2400-2559, rule draws from default_rng(24)) give
    # SE 0.017 and a bound of 16 rejections; about 6 s on 2 cores.
    grid, alpha, reps, pairs = (1.0, 2.0, 3.0, 4.0, 5.0), 0.05, 160, 60
    names = ("score tau=1", "score tau=5", "max", "closed", "sensitivity value tau=1")
    rng, counts = np.random.default_rng(24), {}
    for seed in range(2400, 2400 + reps):
        sample = generate_pairs(pairs, ScenarioSpec("no_effect"), seed)
        diff = diff_matrix(sample, grid)
        D = diff.D  # a difference of positions: no assignment in it
        column = rng.integers(0, len(grid), pairs)
        rules = {"longer time": np.sign(sample.times[:, 0] - sample.times[:, 1]),
                 "tau=1": np.sign(-D[:, 0]), "tau=5": np.sign(-D[:, 4]),
                 "random column": np.sign(-D[np.arange(pairs), column])}
        for (rule, favoured), u in zip(rules.items(), rng.random((len(rules), pairs))):
            for gamma in (1.25, 2.0):
                kept = u < np.where(favoured != 0, gamma / (1.0 + gamma), 0.5)
                V = np.where(favoured != 0, favoured, 1.0) * np.where(kept, 1.0, -1.0)
                biased = PairedSample(sample.times, sample.events, V)
                built = DiffMatrix(diff.taus, D, V)
                rejected = [
                    score_test(biased, "pseudo", 1.0, gamma).p_value <= alpha,
                    score_test(biased, "pseudo", 5.0, gamma).p_value <= alpha,
                    max_test(built, gamma, tol=1e-3).p_value <= alpha,
                    any(closed_test(built, alpha, gamma, tol=1e-3).rejected.values()),
                    sensitivity_value(DiffMatrix(diff.taus[:1], D[:, :1], V), alpha).value
                    > gamma]
                counts[rule, gamma] = counts.get((rule, gamma), 0) + np.array(rejected)
    bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
    assert {(rule, gamma, name): int(count) for (rule, gamma), row in counts.items()
            for name, count in zip(names, row) if count > bound * reps} == {}
