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
gives the error estimate.  The integrand is evaluated ``_PIECE`` lattice
indices at a time in reused buffers, and a large block is cut into one
range per available CPU, each in a thread; the sums are the same bit for
bit whatever the core count.  The estimate is clamped into the Frechet
bounds ``[max(0, 1 - sum_l Phi(-a_l)), min_l Phi(a_l)]``, so the upper tail
``1 - cdf`` always lies between the largest one-column tail and the
Bonferroni sum; the max test clips it further, into second-order bounds
from the bivariate tails (``sensitivity._union_bounds``).  A caller that
only compares the CDF with a level may stop the doubling once the error
bar puts the estimate on one side of it (``mvn_cdf``'s ``level``).
Results are deterministic for a given seed (entropy, never a stream to
draw on).  The module holds the integrator only, with ``mvn_cdf`` its one
public function.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import ndtr, ndtri

from ._parallel import map_ranges
from .errors import AccuracyNotReached, check_tol

MAX_DIM = 25
_MAX_POINTS = 2 ** 16  # lattice points per shift before AccuracyNotReached
_N_SHIFTS = 8
_PIVOT_FLOOR = 1e-10
_TINY = 1e-15
_PIECE = 1024  # lattice indices per piece of the integrand's reused buffers
_SPLIT = 2048  # fewest lattice indices per thread in a split block


def _check_dim(n):
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the supported {MAX_DIM}")


def _check_corr(corr):
    c = np.asarray(corr, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("correlation matrix must be square")
    _check_dim(c.shape[0])
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
    Returns an (R,) array of integrand sums over the given indices.  The
    block is cut into one contiguous range per available CPU, none shorter
    than ``_SPLIT`` indices, each filled in a thread (``map_ranges``).
    Each value is computed alike wherever it falls and the sums come from
    one array, so they are the same bit for bit whatever the core count.
    """
    n_shift = shifts.shape[0]
    f = np.empty(k_values.shape[0] * n_shift)
    map_ranges(lambda lo, hi: _fill_integrand(
        f[lo * n_shift:hi * n_shift], low, limits, k_values[lo:hi], shifts, lattice),
        k_values.shape[0], _SPLIT)
    return f.reshape(-1, n_shift).sum(axis=0)


def _fill_integrand(f, low, limits, k_values, shifts, lattice):
    """Write the integrand at every (index, shift) into ``f``, index-major.

    ``_PIECE`` indices at a time, in buffers reused from piece to piece:
    the transformed lattice points ``w`` (one row per coordinate), the
    conditional quantiles ``y`` (one row per point), the last conditional
    probability ``e`` and a scratch vector ``s``.
    """
    n_shift, dim_m1 = shifts.shape
    rows = min(_PIECE, k_values.shape[0]) * n_shift
    w, y = np.empty((dim_m1, rows)), np.empty((rows, dim_m1))
    e, s = np.empty(rows), np.empty(rows)
    first = ndtr(limits[0] / low[0, 0])
    for start in range(0, k_values.shape[0], _PIECE):
        k = k_values[start:start + _PIECE]
        n = k.shape[0] * n_shift
        wn, out, en, sn = w[:, :n], f[start * n_shift:][:n], e[:n], s[:n]
        np.add(np.multiply.outer(lattice, k)[:, :, None], shifts.T[:, None, :],
               out=wn.reshape(dim_m1, -1, n_shift))
        floor = y.reshape(-1)[:wn.size].reshape(wn.shape)  # y is not read yet
        wn -= np.floor(wn, out=floor)  # the fraction: w >= 0
        wn *= 2.0
        wn -= 1.0
        np.abs(wn, out=wn)  # tent transform
        out.fill(first)
        en.fill(first)
        for l in range(1, dim_m1 + 1):
            np.multiply(wn[l - 1], en, out=sn)
            np.clip(sn, _TINY, 1 - _TINY, out=sn)
            ndtri(sn, out=y[:n, l - 1])
            np.matmul(y[:n, :l], low[l, :l], out=sn)
            np.subtract(limits[l], sn, out=sn)
            if low[l, l] > 0:
                sn /= low[l, l]
                ndtr(sn, out=en)
            else:
                np.greater_equal(sn, 0.0, out=en)
            out *= en


def mvn_cdf(upper, corr, tol=1e-4, seed=0, level=None):
    """``Pr(X_1 <= a_1, ..., X_L <= a_L)`` for X ~ N(0, corr).

    Lattice points double until the error estimate (three standard errors
    of the mean over the random shifts) is at most ``tol`` or ``_MAX_POINTS``
    is reached; in the latter case an AccuracyNotReached warning is emitted.
    Over 8 shifts the standardized mean is a t with 7 degrees of freedom,
    so |error| exceeds the error estimate with probability 2.0% (2 t_7.sf(3)).
    With ``level``, the doubling also ends as soon as the estimate lies
    more than two error estimates (six standard errors) from ``level``:
    the returned value is then on the CDF's side of ``level`` except with
    probability at most 5.4e-4 (2 t_7.sf(6)), which is all a caller
    comparing the two needs, and no AccuracyNotReached is emitted however
    large the error estimate.  The tolerance, the seed, the limits and the
    matrix are checked before any shortcut.
    """
    tol = check_tol(tol, "tol")
    rng = np.random.Generator(np.random.PCG64(seed))
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if np.isnan(upper).any():
        raise ValueError("limits must not be NaN")
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
    shifts = rng.random((_N_SHIFTS, dim - 1))

    sums = np.zeros(_N_SHIFTS)
    n_done = 0
    block = 128
    while True:
        k_values = np.arange(n_done + 1, n_done + block + 1, dtype=float)
        sums += _integrand_means(low, limits, k_values, shifts, lattice)
        n_done += block
        means = sums / n_done
        err = 3.0 * means.std(ddof=1) / np.sqrt(_N_SHIFTS)
        settled = level is not None and abs(means.mean() - level) > 2.0 * err
        if err <= tol or settled or n_done >= _MAX_POINTS:
            break
        block = n_done  # double the total each round
    if err > tol and not settled:
        warnings.warn(
            f"MVN CDF error estimate {err:.2e} above tolerance {tol:.2e}",
            AccuracyNotReached,
            stacklevel=2,
        )
    frechet_low = max(0.0, 1.0 - float(np.sum(ndtr(-upper))))
    return float(np.clip(means.mean(), frechet_low, float(np.min(ndtr(upper)))))
