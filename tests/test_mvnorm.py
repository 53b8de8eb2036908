import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr
from scipy.stats import multivariate_normal

from pairedsurv import ScenarioSpec, correlations, diff_matrix, generate_pairs, mvn_cdf, mvnorm
from pairedsurv.errors import AccuracyNotReached
from pairedsurv.sensitivity import _pair_tails, _union_bounds
from pairedsurv.simulate import SCENARIO_IDS

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


def one_factor_cdf(limits, loadings):
    """Exact ``mvn_cdf`` for corr_ij = loadings_i loadings_j: given a common
    N(0, 1) factor s the variables are independent, so the CDF is the
    integral of phi(s) prod_i Phi((a_i - l_i s) / sqrt(1 - l_i^2)) ds
    (Dunnett & Sobel 1955; Genz & Bretz 2009)."""
    scale = np.sqrt(1.0 - loadings ** 2)
    density = lambda s: np.exp(-0.5 * s * s) * np.prod(ndtr((limits - loadings * s) / scale))
    return quad(density, -np.inf, np.inf, epsabs=1e-13, limit=200)[0] / np.sqrt(2.0 * np.pi)


def one_factor_tail(limits, loadings):
    """``1 - one_factor_cdf``, integrated as the tail so that it keeps the
    digits of a small one: ``1 - prod_i Phi`` is ``-expm1(sum_i log Phi)``."""
    scale = np.sqrt(1.0 - loadings ** 2)
    density = lambda s: np.exp(-0.5 * s * s) * -np.expm1(
        np.sum(log_ndtr((limits - loadings * s) / scale)))
    return quad(density, -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13,
                limit=400)[0] / np.sqrt(2.0 * np.pi)


def one_factor_problems():
    """60 one-factor problems ``(limits, loadings, corr)``, of dimension 2-25,
    a quarter of each one's loadings negative, limits in [0.5, 3.5]."""
    rng = np.random.default_rng(2024)
    for _ in range(60):
        dim = int(rng.integers(2, 26))
        loadings = rng.uniform(0.2, 0.97, dim)
        loadings[: dim // 4] *= -1.0
        limits = rng.uniform(0.5, 3.5, dim)
        corr = np.outer(loadings, loadings)
        np.fill_diagonal(corr, 1.0)
        yield limits, loadings, corr


def test_one_factor_problems_against_quadrature(monkeypatch):
    # The error estimate is 3 standard errors over 8 shifts: were the shift
    # means normal, |error| would exceed it with probability 2 t_7.sf(3) =
    # 2.0%.  Measured on 400 problems drawn like these, |error| exceeded
    # the estimate in 5.2% of them and tol in 1.75%, at which 6 or more
    # misses of tol in 60 problems have probability 0.06%.  Measured here:
    # 1 miss (1.8e-4), median |error| 1.3e-5.  The lattice points per shift
    # guard against a weak generator: 104,704 in all (a Richtmyer sequence
    # took 217,984).
    misses, points = 0, []
    radical_inverse = mvnorm._radical_inverse
    monkeypatch.setattr(mvnorm, "_radical_inverse",
                        lambda start, count: points.append(count) or radical_inverse(start, count))
    for i, (limits, loadings, corr) in enumerate(one_factor_problems()):
        error = mvn_cdf(limits, corr, tol=1e-4, seed=i) - one_factor_cdf(limits, loadings)
        misses += abs(error) > 1e-4
    assert misses <= 5
    assert sum(points) <= 130_000


def test_union_bounds_bracket_one_factor_tails():
    # max_l p_l <= lower <= Pr(X_l > a_l for some l) <= upper <= min(1, S1),
    # to rounding; two columns give both bounds as the one exact value
    pairs = 0
    for limits, loadings, corr in one_factor_problems():
        tails = ndtr(-limits)
        first = tails.max(), min(1.0, tails.sum())
        (low,), (high,) = _union_bounds(limits[None], corr[None], tails[None],
                                        np.array([tails.sum()]), *np.array([first]).T)
        tail = one_factor_tail(limits, loadings)
        assert first[0] <= low <= tail + 1e-15
        assert tail - 1e-15 <= high <= first[1]
        if len(limits) == 2:
            pairs += 1
            assert low == high
            assert high == pytest.approx(tail, abs=1e-12)
    assert pairs > 0


def test_pair_tails_against_scipy():
    # Pr(X > a, Y > b) is the 2-D CDF at (-a, -b); scipy's bivariate integral
    # is accurate to about 1e-16 there
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-3.0, 4.0, (2, 300))
    rho = rng.uniform(-1.0, 1.0, 300)
    # a limit of 0, on one side and both; rho = +-1, and 1 exceeded by
    # rounding; tails that underflow, alone and paired with a likely event
    edge = np.array([(0.0, 1.2, 0.5), (0.0, -0.7, -0.3), (1.1, 0.0, 0.8), (-2.0, 0.0, 0.4),
                     (0.0, 0.0, 0.3), (0.0, 0.0, -0.9), (1.5, 0.5, 1.0), (-0.5, 2.0, 1.0),
                     (0.7, 0.7, 1.0 + 2.0 ** -52), (0.3, -1.0, -1.0), (1.0, -0.5, -1.0),
                     (1.0, -1.0, -1.0), (-1.0, -1.0, -1.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                     (40.0, 40.0, 0.5), (40.0, -3.0, 0.3), (-3.0, 39.0, -0.6),
                     (38.0, 38.5, 0.99)]).T
    a, b, rho = (np.concatenate(x) for x in zip((a, b, rho), edge))
    got = _pair_tails(a, b, rho)
    for x, y, r, p in zip(a, b, np.clip(rho, -1.0, 1.0), got):
        want = multivariate_normal.cdf([-x, -y], cov=[[1.0, r], [r, 1.0]], allow_singular=True)
        assert p == pytest.approx(want, abs=1e-15)
    np.testing.assert_allclose(got, _pair_tails(b, a, rho), rtol=0.0, atol=1e-15)
    assert (0.0 <= got).all() and (got <= np.minimum(ndtr(-a), ndtr(-b))).all()


def test_difference_matrix_problems_against_scipy():
    # Correlations of real difference matrices, not one-factor: I = 300, grids
    # of 2-8 times with and without PPW, the signed (gamma 1) and the
    # absolute-product (gamma 1.25) rule, limits in [0.5, 3].  scipy's Genz
    # integrator is run to 1e-5, so a miss is |diff| > 1e-4 + 1e-5; at the
    # 2.0% coverage of the error estimate, 4 or more misses in 20 problems
    # have probability 0.06%.  Measured: no miss, largest |diff| 7.3e-5,
    # median 9.1e-6.
    rng = np.random.default_rng(19)
    misses = 0
    for k in range(20):
        sample = generate_pairs(300, ScenarioSpec(SCENARIO_IDS[k % 5]), k)
        grid = np.sort(rng.choice(np.arange(0.5, 5.01, 0.5), int(rng.integers(2, 9)), False))
        corr = correlations(diff_matrix(sample, grid, include_ppw=k % 2 == 1).D,
                            1.0 if k % 4 < 2 else 1.25)
        limits = rng.uniform(0.5, 3.0, len(corr))
        reference = multivariate_normal.cdf(limits, cov=corr, abseps=1e-5, releps=0, rng=k)
        misses += abs(mvn_cdf(limits, corr, tol=1e-4, seed=k) - reference) > 1e-4 + 1e-5
    assert misses <= 3


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
    return low, limits, shifts, mvnorm._GENERATOR[:dim - 1] / 2 ** 20


def _integrand_cases():
    # every dimension; index counts of one point, below one piece, on either
    # side of the piece size and of the split threshold, and the largest
    # doubling block; blocks that start past 0, as a doubling block does
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
        k_values = mvnorm._radical_inverse(start, n)
        got = mvnorm._integrand_means(low, limits, k_values, shifts, lattice)
        assert got.tobytes() == integrand_one_shot(
            low, limits, k_values, shifts, lattice).tobytes()
    assert indicator


def test_generator_components_are_odd_and_below_2_to_the_20():
    z = mvnorm._GENERATOR
    assert z.shape == (mvnorm.MAX_DIM - 1,)
    assert (z == np.round(z)).all() and (z % 2 == 1).all() and (z < 2 ** 20).all()


def test_first_points_of_the_sequence_are_a_lattice():
    # the first 2^m radical inverses are i 2^(20 - m) for i = 0..2^m - 1, so
    # the unshifted points are the rank-1 lattice {i z / 2^m}, exactly
    z = mvnorm._GENERATOR.astype(np.int64)
    phi = mvnorm._radical_inverse(0, 2 ** 20)
    for m in range(7, 21):
        n = 2 ** m
        i = phi[:n].astype(np.int64) >> (20 - m)
        assert (phi[:n] == i << (20 - m)).all()
        assert (np.sort(i) == np.arange(n)).all()
        for j, lattice in enumerate(mvnorm._GENERATOR / 2 ** 20):
            x = phi[:n] * lattice
            assert (x - np.floor(x) == (i * z[j] % n) / n).all()


def test_max_points_within_the_sequence():
    # the doubling stops at _MAX_POINTS, so the 2^20-point sequence never runs out
    assert mvnorm._MAX_POINTS <= 2 ** 20


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
