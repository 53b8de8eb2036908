import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from pairedsurv import mvn_cdf, mvnorm
from pairedsurv.errors import AccuracyNotReached

from conftest import fix_workers, integrand_one_shot


def random_corr(rng, dim):
    a = rng.normal(size=(dim, dim))
    s = a @ a.T
    dinv = 1.0 / np.sqrt(np.diag(s))
    c = s * np.outer(dinv, dinv)
    np.fill_diagonal(c, 1.0)
    return c


def plain_mc_cdf(limits, corr, n, seed):
    """Dense Monte Carlo oracle: fraction of N(0, corr) draws inside the box."""
    rng = np.random.default_rng(seed)
    low = np.linalg.cholesky(corr)
    hits = 0
    done = 0
    chunk = 500_000
    while done < n:
        size = min(chunk, n - done)
        z = rng.standard_normal((size, len(limits))) @ low.T
        hits += int(np.count_nonzero(np.all(z <= limits, axis=1)))
        done += size
    return hits / n


def test_one_dimension_is_phi():
    assert mvn_cdf([0.67], [[1.0]]) == ndtr(0.67)


def test_independence_factorizes():
    limits = np.array([-0.3, 0.5, 1.2, 0.1])
    value = mvn_cdf(limits, np.eye(4), tol=1e-6)
    assert value == pytest.approx(np.prod(ndtr(limits)), abs=1e-6)


def test_equicorrelated_orthant_quarter():
    # rho = 1/2 trivariate orthant probability is exactly 1/4
    corr = np.full((3, 3), 0.5)
    np.fill_diagonal(corr, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyNotReached)
        value = mvn_cdf([0.0, 0.0, 0.0], corr, tol=1e-5)
    assert value == pytest.approx(0.25, abs=3e-5)


def test_against_plain_monte_carlo():
    corr = np.full((3, 3), 0.5)
    np.fill_diagonal(corr, 1.0)
    limits = [0.3, -0.2, 0.8]
    value = mvn_cdf(limits, corr, tol=1e-5)
    n = 2_000_000
    mc = plain_mc_cdf(limits, corr, n, seed=1)
    se = np.sqrt(mc * (1 - mc) / n)
    assert abs(value - mc) <= 3 * se + 1e-5


def test_deterministic_given_seed():
    rng = np.random.default_rng(0)
    corr = random_corr(rng, 5)
    limits = rng.normal(size=5)
    assert mvn_cdf(limits, corr, seed=42) == mvn_cdf(limits, corr, seed=42)


def test_monotone_in_limits(monkeypatch):
    monkeypatch.setattr(mvnorm, "_MAX_POINTS", 2 ** 19)
    rng = np.random.default_rng(1)
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        corr = random_corr(rng, dim)
        limits = rng.normal(size=dim)
        bumped = limits.copy()
        bumped[int(rng.integers(dim))] += 0.4
        p0 = mvn_cdf(limits, corr, tol=1e-5, seed=7)
        p1 = mvn_cdf(bumped, corr, tol=1e-5, seed=7)
        assert p1 >= p0 - 2e-5


def test_duplicate_columns_handled():
    # singular matrix: variable 2 is a copy of variable 1
    corr = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
    value = mvn_cdf([0.5, 0.5, 0.2], corr, tol=1e-4)
    # reduces to the bivariate problem with rho = 0.3
    two = mvn_cdf([0.5, 0.2], [[1.0, 0.3], [0.3, 1.0]], tol=1e-5)
    assert value == pytest.approx(two, abs=5e-4)


def test_duplicated_column_pairs_reduce():
    # a grid with no events between two times repeats a column; two such
    # pairs make a rank-4 6x6 matrix
    rng = np.random.default_rng(5)
    corr = random_corr(rng, 4)
    limits = rng.uniform(-0.5, 1.5, size=4)
    idx = [0, 0, 1, 2, 3, 3]
    value = mvn_cdf(limits[idx], corr[np.ix_(idx, idx)], tol=1e-4)
    four = mvn_cdf(limits, corr, tol=1e-5)
    assert value == pytest.approx(four, abs=5e-4)


# A five-column max test (gamma = 1, so every limit is m) from a power-study
# sweep (I = 500, grid 1..5, mvn_tol 5e-4): an unclamped integration with a
# static variable order put its tail at 1.73e-4, above the Bonferroni sum
# 1.18e-4.
POWER_STUDY_LIMITS = np.full(5, 4.06881324399)
POWER_STUDY_CORR = np.array([
    [1.0, 0.670571176998, 0.52412762151, 0.426415567965, 0.35443115396],
    [0.670571176998, 1.0, 0.782639173437, 0.642211594055, 0.533173322303],
    [0.52412762151, 0.782639173437, 1.0, 0.843287612633, 0.710366540853],
    [0.426415567965, 0.642211594055, 0.843287612633, 1.0, 0.848803323874],
    [0.35443115396, 0.533173322303, 0.710366540853, 0.848803323874, 1.0],
])


def test_within_frechet_bounds():
    rng = np.random.default_rng(11)
    cases = [(POWER_STUDY_LIMITS, POWER_STUDY_CORR, 2904642844)]
    for _ in range(60):
        dim = int(rng.integers(2, 9))
        cases.append((rng.uniform(-1.0, 4.5, size=dim), random_corr(rng, dim),
                      int(rng.integers(2 ** 32))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyNotReached)
        for limits, corr, seed in cases:
            value = mvn_cdf(limits, corr, tol=5e-4, seed=seed)
            lower = max(0.0, 1.0 - float(np.sum(ndtr(-limits))))
            assert lower <= value <= float(np.min(ndtr(limits)))


def test_neg_infinite_limit_zero():
    assert mvn_cdf([-np.inf, 0.0], np.eye(2)) == 0.0


@pytest.mark.parametrize("limits, corr", [([np.nan, 0.0], np.eye(2)), ([np.nan], [[1.0]])])
def test_nan_limit_refused(limits, corr):
    with pytest.raises(ValueError, match="limits must not be NaN"):
        mvn_cdf(limits, corr)


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.2], [0.4, 1.0]]),      # asymmetric
    np.array([[2.0, 0.0], [0.0, 1.0]]),      # diagonal not 1
    np.array([[1.0, 1.5], [1.5, 1.0]]),      # entry out of range
])
def test_invalid_correlation_rejected(bad):
    with pytest.raises(ValueError, match="^correlation (matrix|entries) must"):
        mvn_cdf([0.0, 0.0], bad)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        mvn_cdf([0.5, 0.5], [[1.0, 0.3], [0.3, 1.0]], tol=tol)


def test_dimension_cap():
    with pytest.raises(ValueError):
        mvn_cdf(np.zeros(26), np.eye(26))


def test_accuracy_flag_warns(monkeypatch):
    monkeypatch.setattr(mvnorm, "_MAX_POINTS", 256)
    rng = np.random.default_rng(3)
    corr = random_corr(rng, 6)
    with pytest.warns(AccuracyNotReached) as caught:
        mvn_cdf(rng.normal(size=6), corr, tol=1e-9)
    # the warning names the caller of mvn_cdf, not mvnorm.py
    assert [w.filename for w in caught] == [__file__]


def _integrand_args(limits, corr, seed=0):
    low, limits = mvnorm._priority_cholesky(corr, np.asarray(limits, dtype=float))
    dim = limits.shape[0]
    shifts = np.random.default_rng(seed).random((mvnorm._N_SHIFTS, dim - 1))
    return low, limits, shifts, np.sqrt(mvnorm._first_primes(dim - 1))


def _integrand_cases():
    # every dimension; index counts of one point, below one piece, on either
    # side of the piece size and of the split threshold, and the largest
    # doubling block; blocks that start past 1, as a doubling block does
    rng = np.random.default_rng(23)
    piece, split = mvnorm._PIECE, mvnorm._SPLIT
    counts = [1, 127, piece - 1, piece + 1, 2 * split - 1, 2 * split + 1]
    for dim in range(2, mvnorm.MAX_DIM + 1):
        n = counts[dim % len(counts)]
        start = int(rng.choice([0, n, int(rng.integers(1, 5000))]))
        yield random_corr(rng, dim), rng.normal(size=dim) + 1.0, start, n
    yield random_corr(rng, 3), rng.normal(size=3) + 1.0, 2 ** 15, 2 ** 15
    # semidefinite: a repeated column gets a zero pivot, an indicator factor
    corr = random_corr(rng, 4)[np.ix_([0, 1, 1, 2, 3], [0, 1, 1, 2, 3])]
    yield corr, rng.normal(size=5) + 1.0, 0, piece + 1


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_integrand_matches_one_shot(monkeypatch, workers):
    # pieces and threads compute every value alike and sum one array, so
    # the sums equal the one-array integrand bit for bit at any core count
    if workers is not None:
        fix_workers(monkeypatch, workers)
    indicator = False
    for corr, limits, start, n in _integrand_cases():
        low, limits, shifts, lattice = _integrand_args(limits, corr, seed=n)
        indicator |= bool(np.any(np.diag(low) == 0.0))
        k_values = np.arange(start + 1, start + n + 1, dtype=float)
        got = mvnorm._integrand_means(low, limits, k_values, shifts, lattice)
        assert got.tobytes() == integrand_one_shot(
            low, limits, k_values, shifts, lattice).tobytes()
    assert indicator


def _mvn_problems(dims=(2, 5, 12)):
    rng = np.random.default_rng(29)
    for dim in dims:
        yield rng.normal(size=dim) + 1.5, random_corr(rng, dim), int(rng.integers(100))


def test_mvn_cdf_same_bits_at_any_worker_count(monkeypatch):
    # run to _MAX_POINTS, so every block size up to 2**15 indices is summed
    def values():
        return [mvn_cdf(u, c, tol=1e-9, seed=s).hex() for u, c, s in _mvn_problems()]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyNotReached)
        fix_workers(monkeypatch, 1)
        one = values()
        fix_workers(monkeypatch, 3)
        three = values()
        monkeypatch.setattr(mvnorm, "_integrand_means", integrand_one_shot)
        assert one == three == values()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mvn_cdf_transient_memory(monkeypatch, workers):
    # every thread fills reused buffers of _PIECE indices; the one-array
    # integrand held 150 MiB at dimension 25 and 2**15 indices
    fix_workers(monkeypatch, workers)
    [(limits, corr, seed)] = _mvn_problems([mvnorm.MAX_DIM])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.warns(AccuracyNotReached):
            mvn_cdf(limits, corr, tol=1e-9, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 20 * 2 ** 20


def _threads_used(monkeypatch):
    used = set()
    fill = mvnorm._fill_integrand

    def recorded(*args):
        used.add(threading.get_ident())
        return fill(*args)

    monkeypatch.setattr(mvnorm, "_fill_integrand", recorded)
    return used


def test_integrand_threads_end_with_the_call(monkeypatch):
    fix_workers(monkeypatch, 3)
    used = _threads_used(monkeypatch)
    limits, corr, seed = list(_mvn_problems())[1]
    before = threading.active_count()
    with pytest.warns(AccuracyNotReached):
        mvn_cdf(limits, corr, tol=1e-9, seed=seed)
    assert used - {threading.get_ident()}
    assert threading.active_count() == before


def test_integrand_worker_error_reaches_caller(monkeypatch):
    # a warning turned into an error in a worker thread is raised by mvn_cdf
    fix_workers(monkeypatch, 3)
    used = _threads_used(monkeypatch)
    main = threading.get_ident()
    ndtri = mvnorm.ndtri

    def warning_off_main(*args, **kwargs):
        if threading.get_ident() != main:
            warnings.warn("raised in a worker", RuntimeWarning)
        return ndtri(*args, **kwargs)

    monkeypatch.setattr(mvnorm, "ndtri", warning_off_main)
    limits, corr, seed = list(_mvn_problems())[1]
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="raised in a worker"):
            mvn_cdf(limits, corr, tol=1e-9, seed=seed)
    assert used - {main}
    assert threading.active_count() == before
