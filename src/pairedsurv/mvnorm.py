"""Multivariate normal orthant probabilities by quasi-Monte Carlo.

Separation-of-variables scheme (Genz): a lower Cholesky factor turns the
CDF into an integral over the unit cube of dimension L-1.  The factor is
built with the priority reordering of Gibson, Glasbey & Elston (1994; Genz
& Bretz 2009, sec. 4.1.3): each step takes the remaining variable with the
smallest conditional probability given the expected values of the
variables already placed, which lowers the integrand's variance even when
every limit is the same.  A pivot at or below ``_PIVOT_FLOOR`` gets a zero
column, so semidefinite input (duplicated columns) needs no separate path:
that variable is an indicator of its precursors.  The cube is sampled with
a Richtmyer lattice passed through the tent transform, under
``_N_SHIFTS`` independent random shifts; the spread of the per-shift means
gives the error estimate.  The estimate is clamped into the Frechet bounds
``[max(0, 1 - sum_l Phi(-a_l)), min_l Phi(a_l)]``, so the upper tail
``1 - cdf`` always lies between the largest one-column tail and the
Bonferroni sum.  Results are deterministic for a given seed.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import AccuracyNotReached

MAX_DIM = 25
_N_SHIFTS = 8
_PIVOT_FLOOR = 1e-10
_TINY = 1e-15


def _check_corr(corr):
    c = np.asarray(corr, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("correlation matrix must be square")
    if c.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {c.shape[0]} exceeds the supported {MAX_DIM}")
    if not np.allclose(c, c.T, atol=1e-10):
        raise ValueError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-10):
        raise ValueError("correlation matrix must have unit diagonal")
    if np.any(np.abs(c) > 1 + 1e-10):
        raise ValueError("correlation entries must lie in [-1, 1]")
    return 0.5 * (c + c.T)


def _priority_cholesky(corr, limits):
    """Lower factor of ``corr`` and ``limits``, both in priority order.

    Variables whose conditional variance is at or below ``_PIVOT_FLOOR``
    are placed only when nothing else is left, and get a zero column.
    """
    c, b = corr.copy(), limits.copy()
    n = b.shape[0]
    low = np.zeros((n, n))
    y = np.zeros(n)  # expected value of each placed standardized variable
    for k in range(n):
        variance = np.diag(c)[k:] - np.sum(low[k:, :k] ** 2, axis=1)
        cond = (b[k:] - low[k:, :k] @ y[:k]) / np.sqrt(np.maximum(variance, _PIVOT_FLOOR))
        prob = np.where(variance > _PIVOT_FLOOR, ndtr(cond), np.inf)
        i = k + int(np.argmin(prob))
        swap = [i, k]
        c[[k, i]], b[[k, i]], low[[k, i]] = c[swap], b[swap], low[swap]
        c[:, [k, i]] = c[:, swap]
        if variance[i - k] <= _PIVOT_FLOOR:
            continue  # column k stays zero
        low[k, k] = np.sqrt(variance[i - k])
        low[k + 1:, k] = (c[k + 1:, k] - low[k + 1:, :k] @ low[k, :k]) / low[k, k]
        # mean of a standard normal truncated above at z; it tends to z
        # as the probability vanishes
        z, p = cond[i - k], prob[i - k]
        y[k] = -np.exp(-0.5 * z * z) / (np.sqrt(2 * np.pi) * p) if p > _TINY else z
    return low, b


def _first_primes(count):
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return np.array(primes, dtype=float)


def _integrand_means(low, limits, k_values, shifts, lattice):
    """Per-shift sums of the sequential-conditioning integrand.

    ``k_values`` are lattice indices, ``shifts`` has shape (R, dim-1).
    Returns an (R,) array of integrand sums over the given indices.
    """
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


def mvn_cdf(upper, corr, tol=1e-4, seed=0, max_points=2 ** 16):
    """``Pr(X_1 <= a_1, ..., X_L <= a_L)`` for X ~ N(0, corr).

    Lattice points double until the error estimate (three standard errors
    of the mean over the random shifts) is at most ``tol`` or ``max_points``
    is reached; in the latter case an AccuracyNotReached warning is emitted.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    upper = np.asarray(upper, dtype=float).reshape(-1)
    corr = _check_corr(corr)
    if upper.shape[0] != corr.shape[0]:
        raise ValueError("limits and correlation matrix disagree on dimension")
    if upper.shape[0] == 1:
        return float(ndtr(upper[0]))
    if np.any(np.isneginf(upper)):
        return 0.0

    low, limits = _priority_cholesky(corr, upper)
    dim = limits.shape[0]
    lattice = np.sqrt(_first_primes(dim - 1))
    shifts = np.random.default_rng(seed).random((_N_SHIFTS, dim - 1))

    sums = np.zeros(_N_SHIFTS)
    n_done = 0
    block = 128
    while True:
        k_values = np.arange(n_done + 1, n_done + block + 1, dtype=float)
        sums += _integrand_means(low, limits, k_values, shifts, lattice)
        n_done += block
        means = sums / n_done
        err = 3.0 * means.std(ddof=1) / np.sqrt(_N_SHIFTS)
        if err <= tol or n_done >= max_points:
            break
        block = n_done  # double the total each round
    if err > tol:
        warnings.warn(
            f"MVN CDF error estimate {err:.2e} above tolerance {tol:.2e}",
            AccuracyNotReached,
            stacklevel=2,
        )
    frechet_low = max(0.0, 1.0 - float(np.sum(ndtr(-upper))))
    return float(np.clip(means.mean(), frechet_low, float(np.min(ndtr(upper)))))
