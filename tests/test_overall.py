import dataclasses
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from scipy.special import ndtr

from pairedsurv import (
    ScenarioSpec,
    PairedSample,
    StudyConfig,
    build_sample,
    closed_test,
    correlations,
    diff_matrix,
    event_table,
    generate_pairs,
    mvnorm,
    null_moments,
    overall_test,
    pair_differences,
    power_study,
    ppw_test,
    time_specific_test,
)
from pairedsurv.errors import AccuracyNotReached, DegenerateColumnWarning
from pairedsurv.overall import _max_test_from_columns, as_grid
from pairedsurv.simulate import SCENARIO_IDS

from conftest import count_mvn_calls, record_decision_integrations, simulated_sample


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
        ts = time_specific_test(sample, 3.0, gamma, "normal", "benefit")
        assert ov.p_value == pytest.approx(ts.p_value, abs=1e-12)


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


def test_bonferroni_sandwich():
    for seed in range(4):
        sample = simulated_sample(150, "late_div", seed=seed)
        grid = (1.0, 2.0, 3.0, 4.0)
        single = [time_specific_test(sample, t, 1.0, "normal", "benefit").p_value
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
    mean, variance = null_moments(diff.D, 1.0)
    tails = ndtr(-(res.statistic * diff.sigma - mean) / np.sqrt(variance))
    assert 0.0 < tails.max() <= res.p_value <= tails.sum()
    one = overall_test(sample, (3.0,)).p_value
    assert one > 0.0
    assert one == pytest.approx(time_specific_test(sample, 3.0).p_value, rel=1e-12)
    assert all(p > 0.0 for p in closed_test(sample, grid).adjusted_p.values())


def _column_tail_bounds(args):
    """[max_l p_l, min(1, sum_l p_l)] of a max test: the values it returns at
    alpha = 0 and alpha = 1, checked against the column tails recomputed."""
    D, sigma, assignment, gamma = args[:4]
    low = _max_test_from_columns(*args, alpha=0.0)[1]
    high = _max_test_from_columns(*args, alpha=1.0)[1]
    mean, variance = null_moments(D, gamma)
    m = np.max(args[5] * (D.T @ assignment) / sigma)
    tails = ndtr(-(m * sigma - mean) / np.sqrt(variance))
    assert low == pytest.approx(tails.max(), rel=1e-12)
    assert high == pytest.approx(min(1.0, tails.sum()), rel=1e-12)
    return low, high


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
            low, high = _column_tail_bounds(args)
            for alpha in (0.01, 0.05, 0.1):
                before = len(calls)
                _, q = _max_test_from_columns(*args, seed=seed, alpha=alpha)
                assert (q <= alpha) == (p <= alpha)
                if low > alpha or high <= alpha:
                    assert len(calls) == before
                    assert q == (low if low > alpha else high)
                    outcomes.add("bound")
                else:
                    # integrated until its error bar settles the side of
                    # alpha, which the first assertion compares with p's
                    assert len(calls) == before + 1
                    assert low <= q <= high
                    outcomes.add("integrated")
    assert "bound" in outcomes


def test_alpha_at_the_bounds(monkeypatch):
    sample = simulated_sample(200, "ph", seed=1)
    diff = diff_matrix(sample, (1.0, 2.0, 3.0))
    args = (diff.D, diff.sigma, sample.assignment, 1.0, "normal", -1.0)
    low, high = _column_tail_bounds(args)
    assert low < high < 1.0
    calls = count_mvn_calls(monkeypatch)
    # alpha at the capped sum: rejected, without integrating
    assert _max_test_from_columns(*args, alpha=high)[1] == high
    assert calls == []
    # alpha at the largest column tail decides nothing: integrated
    _, q = _max_test_from_columns(*args, alpha=low)
    assert calls == [3]
    p = _max_test_from_columns(*args)[1]
    assert low <= q <= high
    assert (q <= low) == (p <= low)


def test_error_bar_stop_decides_as_full_integration(monkeypatch):
    # the max tests that straddle alpha in the power_i500 benchmark's
    # studies: table1 scenarios, 500 pairs, 4 replications, gamma 1 and 1.25
    table1 = StudyConfig.from_json(resources.files("pairedsurv.configs") / "table1.cfg")
    calls = record_decision_integrations(monkeypatch)
    for master in range(8):
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
        decisions = [1.0 - mvnorm._mvn_cdf(upper, corr, 1e-4, seed,
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
            mvnorm._mvn_cdf(upper, corr, 1e-9, seed, level=level)


def test_montecarlo_needs_draws():
    sample = simulated_sample(50, "ph", seed=1)
    with pytest.raises(ValueError, match="n_draws"):
        time_specific_test(sample, 1.0, method="montecarlo", n_draws=0)


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
    res = ppw_test(sample)
    assert res.p_value == 1.0


def test_ppw_matches_score_machinery():
    sample = simulated_sample(100, "ph", seed=12)
    res = ppw_test(sample, gamma=1.0, direction="benefit")
    t = float(pair_differences(sample, "pw") @ sample.assignment)
    assert res.statistic == pytest.approx(t)
    assert res.tau == "overall"


def test_overall_direction_flip():
    sample = simulated_sample(200, "ph", seed=13)
    benefit = overall_test(sample, (2.0, 4.0), direction="benefit").p_value
    harm = overall_test(sample, (2.0, 4.0), direction="harm").p_value
    assert benefit < 0.5 < harm
