import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from pairedsurv import (
    ScenarioSpec,
    build_sample,
    diff_matrix,
    generate_pairs,
    km_estimate,
)
from pairedsurv import _parallel, sensitivity
from pairedsurv.closed import _subset_seed
from pairedsurv.km import _coerce_units, _event_index, km_at
from pairedsurv.mvnorm import _TINY
from pairedsurv.errors import as_grid, check_gamma
from pairedsurv.sensitivity import _max_test_from_columns, _tie_tol

# Worked five-pair dataset: observed times / event flags in (i1, i2) order,
# all first positions treated.
FIVE_Y = [8.3, 1.8, 4.8, 9.8, 4.5, 11.4, 5.8, 9.4, 5.9, 1.3]
FIVE_E = [1, 1, 1, 1, 1, 0, 0, 1, 1, 1]


def five_pair_records():
    recs = []
    for i in range(5):
        recs.append((f"p{i + 1}", 1, True, FIVE_Y[2 * i], bool(FIVE_E[2 * i])))
        recs.append((f"p{i + 1}", 2, False, FIVE_Y[2 * i + 1], bool(FIVE_E[2 * i + 1])))
    return recs


@pytest.fixture
def five_pairs():
    return build_sample(five_pair_records())


def random_units(rng, n=None, event_prob=0.7, round_digits=None):
    """Censored sample with optional tied times."""
    if n is None:
        n = int(rng.integers(2, 120))
    t = rng.exponential(5.0, n)
    if round_digits is None:
        round_digits = int(rng.integers(0, 3))
    t = t.round(round_digits)
    e = rng.random(n) < event_prob
    return t, e


def event_index_oracle(t, e):
    """Reference ``km._event_index``: a stable sort, ``np.unique`` for the tie
    groups and a binary search for each unit's position among the event times."""
    order = np.argsort(t, kind="mergesort")
    uniq, first = np.unique(t[order], return_index=True)
    m = np.add.reduceat(e[order].astype(np.int64), first)
    keep = m > 0
    tk = uniq[keep]
    return tk, m[keep], (t.size - first)[keep], np.searchsorted(tk, t, side="right")


def pseudo_blocks_oracle(t, e, index, taus, block=1 << 15):
    """Reference pseudo-value kernel: every unit, every tau, a block of units
    at a time.  Yields ``(l, units, q)``, the pseudo-values at ``taus[l]`` of
    the units in the slice ``units``; ``index`` is ``km._event_index(t, e)``.

    Each unit's position is capped at the tau's event count k, and its own
    event counts when ``event_u and Y_u <= tau``, tested on the times.
    """
    tk, mk, nk, cut = index
    k_taus = tk.searchsorted(taus, side="right")
    n = t.size
    removed = np.where(nk > 1, nk - 1 - mk, 1.0) / np.maximum(nk - 1, 1.0)
    prefix = np.concatenate(([1.0], np.cumprod(removed)))
    f_own = np.where(nk > 1, nk - mk, 1.0) / np.maximum(nk - 1, 1.0)
    head = np.concatenate((prefix, [1.0], prefix[:-1] * f_own))
    full = (nk - mk) / nk
    for l, (tau, k) in enumerate(zip(taus, k_taus)):
        suffix = np.concatenate((np.cumprod(full[:k][::-1])[::-1], [1.0]))
        for lo in range(0, n, block):
            units = slice(lo, lo + block)
            c = np.minimum(cut[units], k)
            own = e[units] & (t[units] <= tau)
            km_loo = head[c + prefix.size * own] * suffix[c]
            yield l, units, n * suffix[0] - (n - 1) * km_loo


def simulated_sample(n_pairs=100, scenario="ph", seed=0, censoring_form="covariate_dependent"):
    return generate_pairs(n_pairs, ScenarioSpec(scenario, censoring_form=censoring_form), seed)


def unit_scores(kernel, times, events):
    """Scores of every unit from ``scores._logrank`` or ``scores._pw``, with the
    input checks and the one sort ``pair_differences`` makes before it."""
    t, e = _coerce_units(times, events)
    return kernel(e, _event_index(t, e))


def pseudo_observations_naive(times, events, tau):
    """Reference pseudo-values by literal leave-one-out recomputation, O(n^2)."""
    t = np.asarray(times, dtype=float).reshape(-1)
    e = np.asarray(events, dtype=bool).reshape(-1)
    n = t.size
    if n < 2:
        raise ValueError("pseudo-observations need at least two units")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    km_tau = km_at(km_estimate(t, e), tau)
    keep = np.ones(n, dtype=bool)
    out = np.empty(n)
    for u in range(n):
        keep[u] = False
        out[u] = n * km_tau - (n - 1) * km_at(km_estimate(t[keep], e[keep]), tau)
        keep[u] = True
    return out


def pw_scores_naive(times, events):
    """Reference Prentice-Wilcoxon scores by direct loops over the units:
    ``1 - (1 + event_u) J(Y_u)`` with ``J(Y_u)`` the product of
    ``(n_k - m_k + 1) / (n_k + 1)`` over the distinct event times ``t_k <= Y_u``,
    each risk set and event count counted afresh, without a sort."""
    t = np.asarray(times, dtype=float).reshape(-1).tolist()
    e = np.asarray(events, dtype=bool).reshape(-1).tolist()
    event_times = {tu for tu, eu in zip(t, e) if eu}
    out = np.empty(len(t))
    for u in range(len(t)):
        j = 1.0
        for tk in event_times:
            if tk <= t[u]:
                n_k = sum(tv >= tk for tv in t)
                m_k = sum(tv == tk and ev for tv, ev in zip(t, e))
                j *= (n_k - m_k + 1) / (n_k + 1)
        out[u] = 1.0 - (1.0 + e[u]) * j
    return out


def montecarlo_one_shot(scores, t, gamma=1.0, n_draws=100_000, seed=0) -> float:
    """Reference Monte Carlo tail: every sign of every draw in one array.

    Draw j reads raw PCG64 words ``[j w, (j + 1) w)``, ``w = ceil(k / 2)``,
    as 2w 32-bit uniforms, low half first, of which the first k give its
    signs: +1 below ``ceil(2**32 gamma / (1 + gamma))``, else -1.
    """
    d = np.asarray(scores, dtype=float)
    mags = np.abs(d[d != 0.0])
    if mags.size == 0:
        return 1.0 if 0.0 >= t - _tie_tol(d) else 0.0
    words = (mags.size + 1) // 2
    raw = np.random.PCG64(seed).random_raw(n_draws * words)
    u = raw.astype("<u8").view("<u4").reshape(n_draws, 2 * words)[:, :mags.size]
    threshold = math.ceil(2 ** 32 * Fraction(gamma) / (1 + Fraction(gamma)))
    signs = np.where(u < threshold, 1.0, -1.0)
    return int(np.count_nonzero(signs @ mags >= t - _tie_tol(d))) / n_draws


def fix_workers(monkeypatch, workers):
    """Make every threaded kernel cut its work into ``workers`` ranges."""
    monkeypatch.setattr(_parallel, "_worker_count", lambda n, per_worker: workers)


def on_threads(fn, calls, warn=False):
    """``fn`` appending each call's thread and numpy ``divide`` error mode to
    ``calls``; with ``warn``, a call off the thread that wrapped it first
    raises a ``RuntimeWarning`` through ``warnings.warn``."""
    main = threading.get_ident()

    def recorded(*args, **kwargs):
        calls.append((threading.get_ident(), np.geterr()["divide"]))
        if warn and threading.get_ident() != main:
            warnings.warn("raised in a worker", RuntimeWarning)
        return fn(*args, **kwargs)

    return recorded


def integrand_one_shot(low, limits, k_values, shifts, lattice):
    """Reference ``mvnorm._integrand_means``: every lattice point of the block
    in one array, on one thread."""
    n_shift, dim_m1 = shifts.shape
    n_k = k_values.shape[0]
    base = np.multiply.outer(k_values, lattice)              # (n_k, dim-1)
    w = np.mod(base[:, None, :] + shifts[None, :, :], 1.0)   # (n_k, R, dim-1)
    w = np.abs(2.0 * w - 1.0)                                # tent transform
    w = w.reshape(n_k * n_shift, dim_m1)

    f = np.full(w.shape[0], ndtr(limits[0] / low[0, 0]))
    e_prev = f.copy()
    y = np.empty((w.shape[0], dim_m1))
    for l in range(1, dim_m1 + 1):
        y[:, l - 1] = ndtri(np.clip(w[:, l - 1] * e_prev, _TINY, 1 - _TINY))
        num = limits[l] - y[:, :l] @ low[l, :l]
        if low[l, l] > 0:
            e_prev = ndtr(num / low[l, l])
        else:
            e_prev = (num >= 0).astype(float)
        f *= e_prev
    return f.reshape(n_k, n_shift).sum(axis=0)


def subset_test(sample, subset, gamma=1.0, seed=0, tol=1e-4) -> float:
    """Max-type p-value for the intersection hypothesis over ``subset``."""
    gamma = check_gamma(gamma)
    grid = as_grid(np.sort(np.asarray(list(subset), dtype=float)))
    diff = diff_matrix(sample, grid)
    _, p = _max_test_from_columns(diff.D, diff.sigma, sample.assignment, gamma,
                                  "normal", orient=-1.0, tol=tol, seed=seed)
    return p


def closed_test_brute_force(sample, grid, gamma=1.0, seed=0, tol=1e-4):
    """Reference closed testing: all 2^L - 1 subsets, each tau's adjusted p
    the maximum over the subsets containing it.

    Every subset is integrated with the seed derived from its bitmask, as
    the step-down does.  Returns (adjusted_p, subset_p) keyed like
    ``ClosedTestReport``.
    """
    gamma = check_gamma(gamma)
    grid = as_grid(grid)
    taus = [float(t) for t in grid]
    diff = diff_matrix(sample, grid)
    subset_p = {}
    for mask in range(1, 2 ** len(taus)):
        idx = np.flatnonzero([(mask >> l) & 1 for l in range(len(taus))])
        _, p = _max_test_from_columns(
            diff.D[:, idx], diff.sigma[idx], sample.assignment, gamma, "normal",
            orient=-1.0, tol=tol, seed=_subset_seed(seed, mask))
        subset_p[tuple(taus[i] for i in idx)] = p
    adjusted = {tau: max(p for key, p in subset_p.items() if tau in key)
                for tau in taus}
    return adjusted, subset_p


def max_pvalue_exact(diff) -> float:
    """Randomization tail of the benefit max at gamma = 1 by enumerating all
    2^I sign vectors: the share whose standardized max over the live
    columns of ``diff`` reaches the observed one.  Column l counts a tie as
    ``_pvalue_exact`` does, within ``_tie_tol`` of that column, scaled by
    its sigma.  With no live column the tail is 1, as ``max_test``'s."""
    live = diff.sigma > 0.0
    if not live.any():
        return 1.0
    D, sigma = -diff.D[:, live], diff.sigma[live]  # benefit lowers pseudo columns
    tol = np.array([_tie_tol(column) for column in D.T]) / sigma
    n = D.shape[0]
    signs = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    stats = signs @ D / sigma
    m = (diff.assignment @ D / sigma).max()
    return float(np.mean((stats >= m - tol).any(axis=1)))


def count_mvn_calls(monkeypatch) -> list:
    """Record every MVN integration the max-type tests make through
    ``mvn_cdf``, with or without a decision level; returns the list that
    grows by one entry (the dimension) per call."""
    calls = []
    real = sensitivity.mvn_cdf

    def counted(upper, *args, **kwargs):
        calls.append(len(upper))
        return real(upper, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "mvn_cdf", counted)
    return calls


def record_decision_integrations(monkeypatch) -> list:
    """Record ``(upper, corr, seed, level)`` of every integration that a max
    test makes through ``mvn_cdf``; ``level`` is ``1 - alpha`` for a test
    given alpha and None otherwise."""
    calls = []
    real = sensitivity.mvn_cdf

    def recorded(upper, corr, tol=1e-4, seed=0, level=None):
        calls.append((upper, corr, seed, level))
        return real(upper, corr, tol=tol, seed=seed, level=level)

    monkeypatch.setattr(sensitivity, "mvn_cdf", recorded)
    return calls


def record_union_bounds(monkeypatch) -> list:
    """Record the ``(low, high)`` arrays that ``sensitivity._union_bounds``
    returns to a max test, one entry per call: the second-order bounds of
    the rows whose first-order bounds leave the test open."""
    bounds = []
    real = sensitivity._union_bounds

    def recorded(*args):
        bounds.append(real(*args))
        return bounds[-1]

    monkeypatch.setattr(sensitivity, "_union_bounds", recorded)
    return bounds
