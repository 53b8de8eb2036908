import dataclasses
import re
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from pairedsurv import (
    DiffMatrix,
    ScenarioSpec,
    PairedSample,
    StudyConfig,
    build_sample,
    closed_test,
    correlations,
    diff_matrix,
    generate_pairs,
    max_test,
    mvnorm,
    overall_test,
    pair_differences,
    power_study,
    pvalue_exact,
    score_test,
)
from pairedsurv.errors import AccuracyNotReached, DegenerateColumnWarning, as_grid
from pairedsurv.km import event_table
from pairedsurv.sensitivity import _column_sums, _max_test_from_columns, _null_moments
from pairedsurv.simulate import ADMIN_CUTOFF, SCENARIO_IDS

from conftest import (count_mvn_calls, max_pvalue_exact, record_decision_integrations,
                      record_union_bounds, simulated_sample)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        as_grid(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        as_grid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        as_grid(np.array([]))
    for grid in ([np.nan, 1.0, 2.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            as_grid(grid)


def test_diff_matrix_worked_example(five_pairs):
    diff = diff_matrix(five_pairs, (1.3, 5.9))
    np.testing.assert_allclose(diff.D[4], [-1.0, 0.2], atol=1e-12)
    assert diff.sigma.shape == (2,)
    assert diff.sigma[0] == pytest.approx(np.sqrt(np.sum(diff.D[:, 0] ** 2)))


def test_diff_matrix_column_consistency(five_pairs):
    diff = diff_matrix(five_pairs, (2.0, 4.0, 6.0), include_ppw=True)
    for l, tau in enumerate((2.0, 4.0, 6.0)):
        np.testing.assert_array_equal(
            diff.D[:, l], pair_differences(five_pairs, "pseudo", tau))
    np.testing.assert_array_equal(diff.D[:, 3], -pair_differences(five_pairs, "pw"))
    np.testing.assert_array_equal(diff.sigma, np.sqrt(np.sum(diff.D ** 2, axis=0)))


def test_diff_matrix_refuses_shapes_that_do_not_fit():
    diff = diff_matrix(simulated_sample(40, "ph", seed=1), (1.0, 2.0))
    assert DiffMatrix(np.array([1.0]), diff.D, diff.assignment).has_ppw  # one surplus column
    for taus, D, assignment in (
            ((1.0, 2.0, 3.0), diff.D, diff.assignment),  # a tau with no column
            ((1.0,), np.hstack((diff.D, diff.D)), diff.assignment),  # three surplus columns
            ((1.0, 2.0), diff.D, diff.assignment[:-1]),  # an assignment of other pairs
            ((1.0, 2.0), diff.D, np.stack((diff.assignment, diff.assignment))),
            ((1.0, 2.0), diff.D[:, 0], diff.assignment[0])):  # no column axis
        with pytest.raises(ValueError, match="one column per tau"):
            DiffMatrix(np.asarray(taus), D, assignment)


def test_diff_matrix_runs_the_input_rules():
    # a hand-built matrix passes the rules diff_matrix's inputs pass: a grid,
    # real and finite differences, +-1 signs; a NaN column would otherwise
    # read as degenerate and be dropped without a warning
    diff = diff_matrix(simulated_sample(200, "ph", seed=1), (1.0, 2.0, 3.0))
    for taus in ((2.0, 2.0, 3.0), (3.0, 2.0, -1.0)):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            DiffMatrix(np.asarray(taus), diff.D, diff.assignment)
    for bad in (np.nan, np.inf, -np.inf):
        D = diff.D.copy(order="F")
        D[7, 1] = bad
        with pytest.raises(ValueError, match="real, finite numbers"):
            DiffMatrix(diff.taus, D, diff.assignment)
    for D in (diff.D.astype(complex), diff.D != 0.0, diff.D.astype(str)):
        with pytest.raises(ValueError, match="real, finite numbers"):
            DiffMatrix(diff.taus, D, diff.assignment)
    for entry in (0, 2, 0.5):
        assignment = diff.assignment.astype(float)
        assignment[3] = entry
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            DiffMatrix(diff.taus, diff.D, assignment)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        DiffMatrix(diff.taus, diff.D, diff.assignment > 0)
    # the checks read D in place: the matrix keeps the caller's array
    kept = DiffMatrix(diff.taus, diff.D, diff.assignment)
    assert kept.D is diff.D and kept.D.flags.f_contiguous


def test_public_tests_refuse_a_stack():
    # every public test takes a DiffMatrix, which holds one sample: a stack
    # is refused when the matrix is built
    diffs = [diff_matrix(simulated_sample(40, "ph", seed=seed), (1.0, 2.0)) for seed in (1, 2)]
    with pytest.raises(ValueError, match=re.escape("D of shape (2, 40, 2)")):
        DiffMatrix(diffs[0].taus, np.stack([d.D for d in diffs]),
                   np.stack([d.assignment for d in diffs]))


def test_diff_matrix_equals_per_tau_columns_across_blocks():
    # 20,000 pairs rounded up to 0.01 give tied event and censoring times,
    # so the grid can hit a tied event time; every column is column-major
    sample = simulated_sample(n_pairs=20_000, seed=4)
    times = np.ceil(sample.times * 100) / 100
    sample = PairedSample(times, sample.events, sample.assignment)
    tk, mk, _ = event_table(sample.unit_times, sample.unit_events)
    tied = tk[np.flatnonzero(mk > 1)[len(tk) // 4]]
    grid = (tk[0] / 2, 1.0, tied, sample.unit_times.max() + 3.0)
    assert len(grid) == len(set(grid)) and 0 < grid[0] < tk[0] < grid[1] < tied
    expected = np.column_stack(
        [pair_differences(sample, "pseudo", tau) for tau in grid]
        + [-pair_differences(sample, "pw")])
    # the first grid time is before any event: its column is all zeros
    with pytest.warns(DegenerateColumnWarning, match=re.escape(f"[{float(grid[0])!r}]")):
        D = diff_matrix(sample, grid, include_ppw=True).D
    assert D.flags.f_contiguous
    np.testing.assert_array_equal(D.view(np.int64), expected.view(np.int64))


def test_diff_matrix_transient_memory():
    # the grid kernel holds one pseudo-value table per tau and the unit
    # codes besides D: its traced peak stays within about 1.25x that of
    # building each column on its own (14.5 MiB)
    table2 = StudyConfig.from_json(resources.files("pairedsurv.configs") / "table2.cfg")
    sample = generate_pairs(table2.pairs, table2.scenarios[0], seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        diff_matrix(sample, (1.0, 2.0, 3.0, 4.0, 5.0), include_ppw=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 18 * 2 ** 20


def test_ppw_column_concordant_on_uncensored_pairs():
    # uncensored: the appended PPW column agrees in sign with pseudo columns
    rng = np.random.default_rng(6)
    for seed in range(5):
        rng2 = np.random.default_rng(seed)
        times = rng2.exponential(4.0, (8, 2)) + 0.1
        sample = build_sample(
            [(f"p{i}", j + 1, j == 0, times[i, j], True)
             for i in range(8) for j in (0, 1)]
        )
        taus = np.sort(np.quantile(times, [0.3, 0.6])) + 0.013  # off observed times
        diff = diff_matrix(sample, taus, include_ppw=True)
        assert diff.has_ppw and diff.D.shape[1] == 3
        ppw_col = diff.D[:, -1]
        for l in range(2):
            col = diff.D[:, l]
            both = (np.abs(col) > 1e-9) & (np.abs(ppw_col) > 1e-9)
            assert np.all(np.sign(col[both]) == np.sign(ppw_col[both]))


def test_correlations_single_column():
    d = np.random.default_rng(0).normal(size=(20, 1))
    assert correlations(d).tolist() == [[1.0]]
    assert correlations(np.abs(d)).tolist() == [[1.0]]


def test_correlations_identical_columns():
    d = np.random.default_rng(1).normal(size=(30, 1))
    both = np.column_stack([d, d])
    np.testing.assert_allclose(correlations(both), 1.0)
    np.testing.assert_allclose(correlations(np.abs(both)), 1.0)


def test_rho_equals_rho_plus_when_concordant():
    rng = np.random.default_rng(2)
    base = rng.exponential(size=25)
    d = np.column_stack([base * 0.5, base * 1.7])  # same signs everywhere
    np.testing.assert_allclose(correlations(d), correlations(np.abs(d)), atol=1e-12)


def test_correlations_reject_degenerate_column():
    d = np.zeros((10, 2))
    d[:, 0] = 1.0
    with pytest.raises(ValueError, match="positive score dispersion"):
        correlations(d)


def test_correlation_matrices_well_formed():
    sample = simulated_sample(200, "early_div", seed=4)
    D = diff_matrix(sample, (1.0, 2.0, 3.0, 4.0)).D
    rho, rho_plus = correlations(D), correlations(np.abs(D))
    for mat in (rho, rho_plus):
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), 1.0)
        assert np.all(np.abs(mat) <= 1 + 1e-12)
    assert np.all(rho_plus >= 0)
    # both are normalized Gram matrices, hence PSD
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    assert np.linalg.eigvalsh(rho_plus).min() >= -1e-10


def test_single_column_reduces_to_time_specific():
    sample = simulated_sample(150, "ph", seed=5)
    for gamma in (1.0, 1.5):
        ov = overall_test(sample, (3.0,), gamma=gamma)
        ts = score_test(sample, "pseudo", 3.0, gamma, "normal", "benefit")
        assert ov.p_value == ts.p_value


def test_one_column_max_is_its_score_test_without_integration(monkeypatch):
    # each sample has cases where the max once standardized through m * sigma
    # and moved an ulp off the score test; its column-tail bounds now meet
    counted = count_mvn_calls(monkeypatch)
    grid = (1.0, 2.0, 3.0, 4.0, 5.0)
    for scenario, seed in (("ph", 1), ("ph", 5), ("ph", 7), ("crossing", 15), ("late_div", 0)):
        sample = simulated_sample(300, scenario, seed)
        diff = diff_matrix(sample, grid)
        for gamma in (1.0, 1.25, 2.0):
            subset_p = closed_test(diff, gamma=gamma).subset_p
            for tau in grid:
                p = score_test(sample, "pseudo", tau, gamma).p_value
                assert max_test(diff_matrix(sample, [tau]), gamma).p_value == p
                assert subset_p.get((tau,), p) == p
    assert counted and 1 not in counted


@pytest.mark.parametrize("n_pairs, lowest, highest", [(10, -0.147, 0.010), (14, -0.030, 0.035)])
def test_max_test_against_exact_enumeration(n_pairs, lowest, highest):
    # gamma = 1, grid 1..5, 5 scenarios x seeds 100-101: the normal p minus
    # the exact p measured [-0.142, +0.005] at I = 10 and [-0.025, +0.030]
    # at I = 14, mostly liberal
    grid = (1.0, 2.0, 3.0, 4.0, 5.0)
    gaps = []
    for scenario in SCENARIO_IDS:
        for seed in (100, 101):
            sample = generate_pairs(n_pairs, ScenarioSpec(scenario), seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateColumnWarning)
                diff = diff_matrix(sample, grid)
                columns = [diff_matrix(sample, [tau]) for tau in grid]
            for one in columns:  # one column: the enumeration is pvalue_exact
                d = one.D[:, 0]
                p = pvalue_exact(d, -(d @ sample.assignment)) if one.sigma[0] > 0 else 1.0
                assert max_pvalue_exact(one) == p
            exact = max_pvalue_exact(diff)
            # between the exact column tails at the observed max and their sum
            live = diff.sigma > 0.0
            D = -diff.D[:, live] / diff.sigma[live]
            m = (sample.assignment @ D).max()
            tails = [pvalue_exact(column, m) for column in D.T]
            assert max(tails) <= exact <= min(1.0, sum(tails))
            gaps.append(max_test(diff).p_value - exact)
    assert lowest <= min(gaps) and max(gaps) <= highest


def test_degenerate_columns_dropped_with_warning():
    sample = simulated_sample(100, "ph", seed=7)
    tiny = 1e-6  # before any event: zero-dispersion column
    with pytest.warns(DegenerateColumnWarning):
        res = overall_test(sample, (tiny, 2.0, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clean = overall_test(sample, (2.0, 4.0))
    assert res.p_value == pytest.approx(clean.p_value, abs=1e-12)


def test_all_degenerate_grid_p_one():
    sample = simulated_sample(50, "no_effect", seed=8)
    with pytest.warns(DegenerateColumnWarning):
        res = overall_test(sample, (1e-9,))
    assert res.p_value == 1.0


def test_worst_case_bound_ordering():
    for seed in range(4):
        sample = simulated_sample(120, "crossing", seed=seed)
        base = overall_test(sample, (1.0, 3.0, 5.0), gamma=1.0).p_value
        for gamma in (1.2, 1.6, 2.5):
            assert overall_test(sample, (1.0, 3.0, 5.0), gamma=gamma).p_value >= base - 1e-9


EFFECT_SAMPLES = [(scenario, seed) for scenario in ("ph", "early_div", "crossing", "late_div")
                  for seed in range(5)]


@pytest.mark.xfail(strict=True, reason="a known defect: above gamma = 1 the max test "
                   "takes the absolute-product correlation, whose tail is smaller")
def test_multi_column_worst_case_p_does_not_fall_above_gamma_one():
    for scenario, seed in EFFECT_SAMPLES:
        diff = diff_matrix(simulated_sample(300, scenario, seed=seed),
                           (1.0, 2.0, 3.0, 4.0, 5.0))
        assert max_test(diff, 1.0001).p_value >= max_test(diff, 1.0).p_value


def test_one_column_worst_case_p_does_not_fall_above_gamma_one():
    # the tau search's path: a one-column max tail is that column's normal tail
    for scenario, seed in EFFECT_SAMPLES:
        sample = simulated_sample(300, scenario, seed=seed)
        for tau in (1.0, 2.0, 3.0, 4.0, 5.0):
            diff = diff_matrix(sample, (tau,))
            assert max_test(diff, 1.0001).p_value >= max_test(diff, 1.0).p_value


def test_mvn_helpers_see_the_max_test_integration(monkeypatch):
    # the helpers must patch the binding the max tail calls; a stale one
    # would let the tests that count integrations pass on none
    counted = count_mvn_calls(monkeypatch)
    recorded = record_decision_integrations(monkeypatch)
    max_test(diff_matrix(simulated_sample(200, "ph", seed=1), (1.0, 2.0, 3.0)), 1.0)
    assert counted == [3]
    assert len(recorded) == 1 and recorded[0][3] is None


def test_bonferroni_sandwich():
    for seed in range(4):
        sample = simulated_sample(150, "late_div", seed=seed)
        grid = (1.0, 2.0, 3.0, 4.0)
        single = [score_test(sample, "pseudo", t, 1.0, "normal", "benefit").p_value
                  for t in grid]
        overall = overall_test(sample, grid, gamma=1.0, tol=1e-5).p_value
        assert overall >= min(single) - 2e-4
        assert overall <= len(grid) * min(single) + 2e-4


def test_tiny_max_tail_stays_inside_its_bound():
    # every column tail is near 1e-46, far below what 1 - cdf can resolve
    sample = generate_pairs(8000, ScenarioSpec("ph"), 1)
    grid = (1.0, 2.0, 3.0, 4.0, 5.0)
    res = overall_test(sample, grid)
    diff = diff_matrix(sample, grid)
    mean, variance = _null_moments(*_column_sums(diff.D, diff.assignment)[1:], 1.0)
    tails = ndtr(-(res.statistic * diff.sigma - mean) / np.sqrt(variance))
    assert 0.0 < tails.max() <= res.p_value <= tails.sum()
    one = overall_test(sample, (3.0,)).p_value
    assert one > 0.0
    assert one == pytest.approx(score_test(sample, "pseudo", 3.0).p_value, rel=1e-12)
    assert all(p > 0.0 for p in closed_test(diff_matrix(sample, grid)).adjusted_p.values())


def test_two_column_max_test_is_exact(monkeypatch):
    # both second-order bounds are p1 + p2 - p12, so two columns, and every
    # two-column subset of a closed test, need no integration
    calls, pairs = count_mvn_calls(monkeypatch), 0
    for scenario, seed in (("ph", 1), ("late_div", 2), ("crossing", 3), ("no_effect", 4)):
        sample = generate_pairs(300, ScenarioSpec(scenario), seed)
        diff = diff_matrix(sample, (2.0, 4.0))
        for gamma in (1.0, 1.25):
            res = max_test(diff, gamma)
            mean, variance = _null_moments(*_column_sums(diff.D, diff.assignment)[1:], gamma)
            limits = (res.statistic * diff.sigma - mean) / np.sqrt(variance)
            corr = correlations(diff.D, gamma)[0, 1]
            both = multivariate_normal.cdf(-limits, cov=[[1.0, corr], [corr, 1.0]])
            assert res.p_value == pytest.approx(ndtr(-limits).sum() - both, rel=1e-12)
        assert calls == []
        report = closed_test(diff_matrix(sample, (1.0, 2.0, 3.0)))
        assert len(calls) <= sum(len(s) == 3 for s in report.subset_p)
        pairs += sum(len(s) == 2 for s in report.subset_p)
        calls.clear()
    assert pairs > 0


def test_copied_columns_past_the_cutoff_keep_their_bounds(monkeypatch):
    # grid times at and past ADMIN_CUTOFF give one column three times, with
    # correlations 1 up to rounding on either side: 1 + eps is clipped to the
    # rho = 1 pair tail, 1 - eps takes Owen's T.  The copies add nothing to the
    # union, so the bounds hold the max p of the grid without them.  Each p is
    # within tol of the same truth as far as its error estimate holds (2.0%
    # misses each), so they differ by at most 2 tol; a difference beyond tol
    # has a chance of about 7% (measured: 1 of 20, 1.03e-4)
    grid, tol = (1.0, 2.0, 3.0, 3.5, 5.0, 5.5, 6.0), 1e-4
    assert grid[4] == ADMIN_CUTOFF
    rounded, far = set(), 0
    for scenario in SCENARIO_IDS:
        for seed in (0, 1):
            sample = generate_pairs(300, ScenarioSpec(scenario), seed)
            copies, plain = diff_matrix(sample, grid), diff_matrix(sample, grid[:5])
            assert (copies.D[:, 4:5] == copies.D[:, 5:]).all()
            for gamma in (1.0, 1.25):
                rounded.update(np.sign(correlations(copies.D, gamma)[4, 5:] - 1.0))
                with monkeypatch.context() as patch:
                    bounds = record_union_bounds(patch)
                    p = max_test(copies, gamma, tol=tol).p_value
                q = max_test(plain, gamma, tol=tol).p_value
                ((low,), (high,)), = bounds
                assert low - tol <= q <= high + tol
                assert abs(p - q) <= 2.0 * tol
                far += abs(p - q) > tol
    assert -1.0 in rounded and rounded - {-1.0}  # both sides of 1 are met
    assert far <= 4


def test_stacked_max_test_takes_one_seed_per_sample():
    diffs = [diff_matrix(generate_pairs(200, ScenarioSpec("ph"), seed), (1.0, 2.0, 3.0))
             for seed in (1, 2)]
    D, sigma = np.stack([d.D for d in diffs]), np.stack([d.sigma for d in diffs])
    assignment = np.stack([d.assignment for d in diffs])
    m, p = _max_test_from_columns(D, sigma, assignment, 1.0, "normal", 1.0, 1e-4, [3, 4])
    for r, (d, seed) in enumerate(zip(diffs, (3, 4))):
        assert (m[r], p[r]) == _max_test_from_columns(d.D, d.sigma, d.assignment, 1.0,
                                                      "normal", 1.0, 1e-4, seed)
    with pytest.raises(ValueError, match="one seed per sample"):
        _max_test_from_columns(D, sigma, assignment, 1.0, "normal", 1.0, 1e-4, 3)


@pytest.mark.parametrize("grid", [(1.0, 2.0, 3.0, 4.0, 5.0), tuple(np.arange(0.5, 5.5, 0.5))])
def test_stacked_max_test_masks_dropped_columns(grid):
    # a sample's dropped columns are masked in the stack, and it gets the bits
    # of the one-sample call on its live columns: none dropped, a prefix (a
    # grid time before the first event), a prefix and a middle column, all;
    # on ten columns 8 and 7 live, where a zero in the tail sum would regroup
    # numpy's pairwise sum (alpha = 1 returns that capped sum)
    diffs = [diff_matrix(generate_pairs(300, ScenarioSpec(scenario), seed), grid)
             for scenario, seed in (("ph", 1), ("late_div", 2), ("crossing", 3), ("ph", 4))]
    D = np.stack([d.D for d in diffs])
    for r, dropped in enumerate(([], [0, 1], [0, 1, 3], list(range(len(grid))))):
        D[r][:, dropped] = 0.0
    assignment = np.stack([d.assignment for d in diffs])
    sigma, seeds = np.sqrt(np.sum(D ** 2, axis=-2)), [11, 12, 13, 14]
    for gamma in (1.0, 1.1, 1.5):
        for alpha in (None, 0.05, 1.0):
            args = (gamma, "normal", -1.0, 1e-4)
            m, p = _max_test_from_columns(D, sigma, assignment, *args, seeds, alpha)
            for r, keep in enumerate(sigma > 0.0):
                if keep.any():
                    assert (m[r], p[r]) == _max_test_from_columns(
                        D[r][:, keep], sigma[r][keep], assignment[r], *args, seeds[r],
                        alpha)
                else:
                    assert np.isnan(m[r]) and p[r] == 1.0


def _heaviest_tree(weight):
    """Weight of the heaviest spanning tree of a complete graph, by Kruskal's
    algorithm (``_union_bounds`` runs Prim's)."""
    parent = list(range(len(weight)))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    total = 0.0
    for w, i, j in sorted(((weight[i, j], i, j) for i, j in zip(*np.triu_indices(len(weight), 1))),
                          reverse=True):
        if root(i) != root(j):
            parent[root(i)] = root(j)
            total += w
    return total


def _tail_bounds(args, monkeypatch):
    """The bounds a max test decides with, in the order it consults them,
    each checked against the tails recomputed: ``[max_l p_l, min(1, sum_l
    p_l)]`` of the column tails, which it returns at alpha = 0 and alpha = 1,
    then, unless those meet, the second-order bounds that ``_union_bounds``
    gives it on a call without alpha: Hunter's upper bound and the larger of
    Dawson-Sankoff's and de Caen's lower bounds, from pair tails of scipy's
    bivariate normal CDF."""
    D, sigma, assignment, gamma = args[:4]
    low = _max_test_from_columns(*args, alpha=0.0)[1]
    high = _max_test_from_columns(*args, alpha=1.0)[1]
    mean, variance = _null_moments(*_column_sums(D, assignment)[1:], gamma)
    m = np.max(args[5] * (D.T @ assignment) / sigma)
    limits = (m * sigma - mean) / np.sqrt(variance)
    tails = ndtr(-limits)
    assert low == pytest.approx(tails.max(), rel=1e-12)
    assert high == pytest.approx(min(1.0, tails.sum()), rel=1e-12)
    with monkeypatch.context() as patch:
        bounds = record_union_bounds(patch)
        _max_test_from_columns(*args)
    if low == high:
        assert bounds == []
        return [(low, high)]
    ((second_low,), (second_high,)), = bounds
    corr, width = correlations(D, gamma), len(tails)
    pair = np.zeros((width, width))
    for i, j in zip(*np.triu_indices(width, 1)):
        pair[i, j] = pair[j, i] = multivariate_normal.cdf(
            -limits[[i, j]], cov=[[1.0, corr[i, j]], [corr[i, j], 1.0]])
    s1, s2 = tails.sum(), pair.sum() / 2.0
    k = 1.0 + np.floor(2.0 * s2 / s1)
    lower = max(2.0 * s1 / (k + 1.0) - 2.0 * s2 / (k * (k + 1.0)),
                np.sum(tails ** 2 / (tails + pair.sum(axis=1))))
    upper = min(max(s1 - _heaviest_tree(pair), low), high)
    assert second_high == pytest.approx(upper, rel=1e-12)
    assert second_low == pytest.approx(min(max(lower, low), upper), rel=1e-12)
    return [(low, high), (second_low, second_high)]


@pytest.mark.parametrize("scenario", SCENARIO_IDS)
def test_alpha_bound_decides_as_integrated_p(scenario, monkeypatch):
    calls = count_mvn_calls(monkeypatch)
    grid = (1.0, 2.0, 3.0, 4.0, 5.0)
    outcomes = set()
    for seed in range(3):
        sample = simulated_sample(200, scenario, seed=seed)
        diff = diff_matrix(sample, grid, include_ppw=True)
        for gamma in (1.0, 1.25, 1.5):
            args = (diff.D, diff.sigma, sample.assignment, gamma, "normal", -1.0)
            _, p = _max_test_from_columns(*args, seed=seed)
            bounds = _tail_bounds(args, monkeypatch)
            for alpha in (0.01, 0.05, 0.1):
                before = len(calls)
                _, q = _max_test_from_columns(*args, seed=seed, alpha=alpha)
                assert (q <= alpha) == (p <= alpha)
                decided = [(order, low, high) for order, (low, high) in enumerate(bounds)
                           if low > alpha or high <= alpha]
                if decided:
                    # the first pair of bounds that settles alpha decides
                    order, low, high = decided[0]
                    assert len(calls) == before
                    assert q == (low if low > alpha else high)
                    outcomes.add(("first-order", "second-order")[order])
                else:
                    # integrated until its error bar settles the side of
                    # alpha, which the first assertion compares with p's
                    low, high = bounds[-1]
                    assert len(calls) == before + 1
                    assert low <= q <= high
                    outcomes.add("integrated")
    assert {"first-order", "second-order"} <= outcomes


def test_alpha_at_the_bounds(monkeypatch):
    sample = simulated_sample(200, "ph", seed=1)
    diff = diff_matrix(sample, (1.0, 2.0, 3.0))
    args = (diff.D, diff.sigma, sample.assignment, 1.0, "normal", -1.0)
    (first_low, _), (low, high) = _tail_bounds(args, monkeypatch)
    assert first_low < low
    assert low < high < 1.0
    calls = count_mvn_calls(monkeypatch)
    # alpha at the upper bound: rejected, without integrating
    assert _max_test_from_columns(*args, alpha=high)[1] == high
    assert calls == []
    # alpha at the lower bound decides nothing: integrated
    _, q = _max_test_from_columns(*args, alpha=low)
    assert calls == [3]
    p = _max_test_from_columns(*args)[1]
    assert low <= q <= high
    assert (q <= low) == (p <= low)


def test_error_bar_stop_decides_as_full_integration(monkeypatch):
    # the max tests that straddle alpha in the power_i500 benchmark's
    # studies: table1 scenarios, 500 pairs, 4 replications, gamma 1 and 1.25;
    # the second-order bounds settle most, so 32 masters give 44 of them
    table1 = StudyConfig.from_json(resources.files("pairedsurv.configs") / "table1.cfg")
    calls = record_decision_integrations(monkeypatch)
    for master in range(32):
        power_study(dataclasses.replace(table1, pairs=500, replications=4,
                                        seed=master, gammas=(1.0, 1.25)))
    monkeypatch.undo()
    assert len(calls) >= 40
    points = []
    real = mvnorm._integrand_means

    def counted(low, limits, k_values, *args):
        points.append(k_values.shape[0])
        return real(low, limits, k_values, *args)

    monkeypatch.setattr(mvnorm, "_integrand_means", counted)
    alpha = table1.alpha
    assert all(level == 1.0 - alpha for *_, level in calls)
    runs = []
    for early in (False, True):
        points.clear()
        decisions = [1.0 - mvnorm.mvn_cdf(upper, corr, 1e-4, seed,
                                          level=level if early else None) <= alpha
                     for upper, corr, seed, level in calls]
        runs.append((decisions, sum(points)))
    (full, full_points), (decided, early_points) = runs
    assert decided == full
    assert early_points < full_points
    # a call settled by its error bar ends without the tolerance's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyNotReached)
        for upper, corr, seed, level in calls:
            mvnorm.mvn_cdf(upper, corr, 1e-9, seed, level=level)


def test_montecarlo_needs_draws():
    sample = simulated_sample(50, "ph", seed=1)
    with pytest.raises(ValueError, match="n_draws"):
        score_test(sample, "pseudo", 1.0, method="montecarlo", n_draws=0)


def test_max_test_has_only_the_normal_method():
    sample = simulated_sample(50, "ph", seed=1)
    with pytest.raises(ValueError, match="only the normal method"):
        overall_test(sample, (1.0, 2.0), method="montecarlo")
    res = overall_test(sample, (1.0, 2.0), method="normal")
    assert res.method == "normal"
    assert res.p_value == overall_test(sample, (1.0, 2.0)).p_value


def test_ppw_all_tied_p_one():
    sample = build_sample([
        ("a", 1, True, 2.0, True), ("a", 2, False, 2.0, True),
        ("b", 1, True, 3.0, True), ("b", 2, False, 3.0, True),
    ])
    res = score_test(sample, "pw")
    assert res.p_value == 1.0


def test_ppw_matches_score_machinery():
    sample = simulated_sample(100, "ph", seed=12)
    res = score_test(sample, "pw", gamma=1.0, direction="benefit")
    t = float(pair_differences(sample, "pw") @ sample.assignment)
    assert res.statistic == pytest.approx(t)
    assert res.tau is None


def test_overall_direction_flip():
    sample = simulated_sample(200, "ph", seed=13)
    benefit = overall_test(sample, (2.0, 4.0), direction="benefit").p_value
    harm = overall_test(sample, (2.0, 4.0), direction="harm").p_value
    assert benefit < 0.5 < harm
