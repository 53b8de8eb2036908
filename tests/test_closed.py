import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

from pairedsurv import (StudyConfig, closed, closed_test, diff_matrix, generate_pairs,
                        overall_test, score_test)
from pairedsurv.errors import DegenerateColumnWarning
from pairedsurv.simulate import ADMIN_CUTOFF

from conftest import closed_test_brute_force, count_mvn_calls, simulated_sample, subset_test

GRID = (1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
def test_alpha_outside_unit_interval_refused(alpha):
    sample = simulated_sample(30, "ph", seed=1)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        closed_test(diff_matrix(sample, GRID), alpha=alpha)


def test_ppw_column_refused():
    sample = simulated_sample(30, "ph", seed=1)
    with pytest.raises(ValueError, match="without a PPW column"):
        closed_test(diff_matrix(sample, GRID, include_ppw=True))


def test_singleton_subset_equals_time_specific():
    sample = simulated_sample(150, "ph", seed=1)
    for gamma in (1.0, 1.3):
        p = subset_test(sample, (3.0,), gamma=gamma)
        ts = score_test(sample, "pseudo", 3.0, gamma, "normal", "benefit")
        assert p == pytest.approx(ts.p_value, abs=1e-12)


def test_full_grid_subset_equals_overall():
    sample = simulated_sample(150, "early_div", seed=2)
    p = subset_test(sample, GRID, gamma=1.0, seed=0)
    ov = overall_test(sample, GRID, gamma=1.0, seed=0)
    assert p == pytest.approx(ov.p_value, abs=1e-12)


def test_single_tau_grid_adjusted_equals_unadjusted():
    sample = simulated_sample(100, "ph", seed=3)
    report = closed_test(diff_matrix(sample, (3.0,)))
    assert report.adjusted_p[3.0] == pytest.approx(
        score_test(sample, "pseudo", 3.0, 1.0, "normal", "benefit").p_value, abs=1e-12
    )


def test_adjusted_at_least_unadjusted():
    for seed in range(4):
        sample = simulated_sample(120, "crossing", seed=seed)
        report = closed_test(diff_matrix(sample, GRID), gamma=1.0)
        for tau in GRID:
            single = subset_test(sample, (tau,), gamma=1.0)
            assert report.adjusted_p[tau] >= single - 1e-12


def test_closure_coherence():
    # nothing can be rejected when the full-grid test is not
    for seed in range(6):
        sample = simulated_sample(80, "no_effect", seed=seed)
        report = closed_test(diff_matrix(sample, GRID), alpha=0.05)
        full = report.subset_p[GRID]
        if full > 0.05:
            assert not any(report.rejected.values())


def test_monotone_in_gamma():
    sample = simulated_sample(300, "ph", seed=5)
    low = closed_test(diff_matrix(sample, GRID), gamma=1.0)
    high = closed_test(diff_matrix(sample, GRID), gamma=1.2)
    for tau in GRID:
        assert high.adjusted_p[tau] >= low.adjusted_p[tau] - 1e-9


def test_report_structure():
    sample = simulated_sample(100, "ph", seed=6)
    report = closed_test(diff_matrix(sample, GRID), alpha=0.1, gamma=1.0)
    assert report.taus == GRID
    assert len(report.subset_p) <= len(GRID)
    for tau in GRID:
        assert report.rejected[tau] == (report.adjusted_p[tau] <= 0.1)


def test_deterministic_reports():
    sample = simulated_sample(100, "late_div", seed=7)
    a = closed_test(diff_matrix(sample, GRID), seed=11)
    b = closed_test(diff_matrix(sample, GRID), seed=11)
    assert a.adjusted_p == b.adjusted_p
    assert a.subset_p == b.subset_p


def test_long_grid_completes():
    sample = simulated_sample(200, "ph", seed=8)
    grid = tuple(np.linspace(0.5, 5.0, 20))
    report = closed_test(diff_matrix(sample, grid), tol=1e-3)
    assert len(report.subset_p) <= 20
    assert set(report.adjusted_p) == set(report.taus)


def test_grid_cap(monkeypatch):
    # the only limit left is the MVN dimension (25 columns), refused before
    # any subset is integrated
    sample = simulated_sample(200, "ph", seed=8)
    diff = diff_matrix(sample, tuple(np.linspace(0.5, 5.0, 26)))
    calls = count_mvn_calls(monkeypatch)
    with pytest.raises(ValueError, match="exceeds the supported 25"):
        closed_test(diff)
    assert calls == []


@pytest.mark.parametrize("grid", [GRID, (1.0, 2.0, 3.0, ADMIN_CUTOFF, ADMIN_CUTOFF + 0.5),
                                  (1e-9, 1e-8)])
def test_one_max_test_pass(monkeypatch, grid):
    # every step-down subset is one row of a single masked max test: on an
    # ordinary grid, with a copy past the cutoff, and with no live column
    sample = simulated_sample(150, "ph", seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateColumnWarning)
        diff = diff_matrix(sample, grid)
    rows, real = [], closed._max_test_rows

    def counted(D, keep, *args, **kwargs):
        rows.append(len(keep))
        return real(D, keep, *args, **kwargs)

    monkeypatch.setattr(closed, "_max_test_rows", counted)
    report = closed_test(diff)
    assert rows == [len(report.subset_p)]
    if grid[-1] > ADMIN_CUTOFF:
        assert diff.dropped.tolist() == [False] * 4 + [True]
        assert report.adjusted_p[ADMIN_CUTOFF] == report.adjusted_p[grid[-1]]
    if not (diff.sigma > 0.0).any():
        assert report.subset_p == {}
        assert set(report.adjusted_p.values()) == {1.0}


def test_transient_memory():
    # the subsets are column masks over the one matrix, whose sums over the pairs
    # are taken once and whose correlations take one product pass: no
    # subset copies D's columns (18.3 MiB at gamma = 1 when each did) or, at
    # gamma > 1, their absolute values (18.3 MiB at gamma = 1.2 when each did)
    table2 = StudyConfig.from_json(resources.files("pairedsurv.configs") / "table2.cfg")
    sample = generate_pairs(table2.pairs, table2.scenarios[0], seed=1)
    diff = diff_matrix(sample, tuple(np.linspace(5.0 / 12, 5.0, 12)))
    for gamma in (1.0, 1.2):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            closed_test(diff, gamma=gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 14 * 2 ** 20, gamma


def test_degenerate_subset_gets_p_one():
    sample = simulated_sample(60, "ph", seed=9)
    # both columns before the first event: dropped, empty subset -> p = 1
    with pytest.warns(DegenerateColumnWarning, match=r"\[1e-08\]"):
        assert subset_test(sample, (1e-8,), gamma=1.0) == 1.0


ORACLE_CASES = [
    ("ph", 10, (2.0, 4.0)),
    ("early_div", 11, (1.0, 2.0, 3.0, 4.0, 5.0)),
    ("crossing", 12, (1e-8, 1.0, 2.0, 3.0, 4.0)),
    ("late_div", 13, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)),
    ("no_effect", 14, (1e-8, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 5.0)),
    # copies of the 5.0 column past the administrative cutoff: each subset's
    # max test holds a copy only with its original, whose statistic it has
    ("ph", 15, (1.0, 3.0, ADMIN_CUTOFF, ADMIN_CUTOFF + 0.5, ADMIN_CUTOFF + 1.0)),
]


@pytest.mark.parametrize("scenario,seed,grid", ORACLE_CASES)
@pytest.mark.parametrize("gamma", (1.0, 1.3))
def test_stepdown_matches_brute_force(scenario, seed, grid, gamma):
    sample = simulated_sample(150, scenario, seed=seed)
    tol = 1e-4
    if grid[0] == 1e-8 or grid[-1] > ADMIN_CUTOFF:
        # tau = 1e-8 precedes every event, and a tau past the cutoff copies
        # the cutoff's column: the oracle's matrix and the step-down's each
        # warn once
        with pytest.warns(DegenerateColumnWarning) as caught:
            brute_adj, brute_subsets = closed_test_brute_force(sample, grid, gamma,
                                                               seed=5, tol=tol)
        assert len(caught) == 1
        with pytest.warns(DegenerateColumnWarning) as caught:
            report = closed_test(diff_matrix(sample, grid), gamma=gamma, seed=5, tol=tol)
        assert len(caught) == 1
        if grid[0] == 1e-8:  # its adjusted p is 1
            assert report.adjusted_p[1e-8] == brute_adj[1e-8] == 1.0
    else:
        brute_adj, brute_subsets = closed_test_brute_force(sample, grid, gamma,
                                                           seed=5, tol=tol)
        report = closed_test(diff_matrix(sample, grid), gamma=gamma, seed=5, tol=tol)
    assert 1 <= len(report.subset_p) <= len(grid)
    for key, p in report.subset_p.items():
        assert p == brute_subsets[key]
    for tau in grid:
        assert report.adjusted_p[tau] <= brute_adj[tau]
        assert brute_adj[tau] - report.adjusted_p[tau] <= 3 * tol
