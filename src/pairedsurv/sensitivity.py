"""Time-specific randomization tests and worst-case sensitivity bounds.

The paired statistic is ``T = sum_i d_i V_i``.  Under the bounded
odds-ratio assignment model with parameter ``gamma >= 1``, the worst case
for the upper tail replaces each term by ``|d_i|`` times an independent
sign that is positive with probability ``gamma / (1 + gamma)``; gamma = 1
recovers the plain randomization distribution.  The p-value primitives
compute only that upper tail; the other tail is the upper tail of the
negated differences, with the sign from ``scores._sign``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .scores import _sign, pair_differences

EXACT_PAIR_CAP = 20


def check_gamma(gamma) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"gamma must be a finite real >= 1, got {gamma!r}")
    return gamma


def _tie_tol(d) -> float:
    # ties at the observed value must count; resummation order shifts sums
    # by O(eps * scale)
    return 1e-12 * max(1.0, float(np.sum(np.abs(d))))


@dataclass(frozen=True)
class TestResult:
    """Outcome of a one-sided test: statistic, null moments, p-value, and as
    ``direction`` the tested tail of ``sum d_i V_i`` (``"lower"``/``"upper"``)
    for a score test or ``"benefit"``/``"harm"`` for an overall test."""

    statistic: float
    null_mean: float
    null_sd: float
    p_value: float
    gamma: float
    method: str
    direction: str
    tau: float | str | None

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError("p_value must lie in [0, 1]")
        if self.null_sd < 0:
            raise ValueError("null_sd must be >= 0")


def t_statistic(scores, sample) -> float:
    """Observed ``sum_i d_i V_i``."""
    d = np.asarray(scores, dtype=float)
    v = sample.assignment
    if d.shape[0] != v.shape[0]:
        raise ValueError(
            f"scores have {d.shape[0]} pairs but sample has {v.shape[0]}"
        )
    return float(d @ v)


def null_moments(scores, gamma=1.0):
    """Worst-case mean and variance of the upper-tail bounding statistic.

    ``mean = [(gamma-1)/(1+gamma)] sum |d_i|`` and
    ``variance = [4 gamma/(1+gamma)^2] sum d_i^2``, as floats for one
    score vector and column by column for an (I, L) matrix.
    """
    gamma = check_gamma(gamma)
    d = np.asarray(scores, dtype=float)
    mean = (gamma - 1.0) / (gamma + 1.0) * np.sum(np.abs(d), axis=0)
    variance = 4.0 * gamma / (gamma + 1.0) ** 2 * np.sum(d * d, axis=0)
    if d.ndim == 1:
        return float(mean), float(variance)
    return mean, variance


def pvalue_normal(t, mean, variance):
    """Normal upper tail ``Pr(T >= t)`` with the degenerate-variance convention.

    Zero variance returns 1 when the statistic does not exceed the mean,
    else 0 (no dispersion means no evidence).  Array arguments give one
    p-value per element; scalars give a float.
    """
    t, mean, variance = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (t, mean, variance)))
    if np.any(variance < 0):
        raise ValueError("variance must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (t - mean) / np.sqrt(variance)
    # ndtr(-z), not 1 - ndtr(z), which rounds to 0 from z = 9 on
    p = np.where(variance == 0.0, t <= mean, ndtr(-z))
    return float(p) if p.ndim == 0 else p


def pvalue_exact(scores, t, gamma=1.0) -> float:
    """Worst-case upper tail ``Pr(T >= t)`` by exact enumeration.

    Enumerates the 2^k sign patterns over the k pairs with nonzero
    differences (tied pairs contribute exactly zero).  Ties at the observed
    value are included in the tail.
    """
    gamma = check_gamma(gamma)
    d = np.asarray(scores, dtype=float)
    mags = np.abs(d[d != 0.0])
    if mags.size > EXACT_PAIR_CAP:
        raise ValueError(
            f"{mags.size} informative pairs exceed the exact cap of {EXACT_PAIR_CAP}"
        )
    p_plus = gamma / (1.0 + gamma)
    values = np.zeros(1)
    probs = np.ones(1)
    for a in mags:
        values = np.concatenate((values + a, values - a))
        probs = np.concatenate((probs * p_plus, probs * (1.0 - p_plus)))
    return float(probs[values >= t - _tie_tol(d)].sum())


def pvalue_montecarlo(scores, t, gamma=1.0, n_draws=100_000, seed=0) -> float:
    """Worst-case upper tail ``Pr(T >= t)`` by simulation; deterministic given seed.

    Each pair with a nonzero difference draws one sign, positive with
    probability gamma/(1+gamma), times ``|d_i|``; zero pairs contribute
    nothing and draw no sign.  Ties at ``t`` count.  This is the one
    simulator: it serves one-column tests only, and the max-type test has
    only its normal method.
    """
    gamma = check_gamma(gamma)
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    d = np.asarray(scores, dtype=float)
    tol = _tie_tol(d)
    mags = np.abs(d[d != 0.0]).reshape(-1, 1)
    rows = mags.shape[0]
    if rows == 0:
        return 1.0 if 0.0 >= t - tol else 0.0
    p_plus = gamma / (1.0 + gamma)
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = max(1, min(n_draws, 2 ** 22 // rows))
    remaining = n_draws
    while remaining > 0:
        size = min(chunk, remaining)
        signs = np.where(rng.random((size, rows)) < p_plus, 1.0, -1.0)
        hits += int(np.count_nonzero(signs @ mags >= t - tol))
        remaining -= size
    return hits / n_draws


def _score_test(scores, sample, gamma, method, sign, tau_label,
                n_draws=100_000, seed=0) -> TestResult:
    """Shared p-value dispatch; ``sign = -1`` tests T's lower tail as -T's upper."""
    gamma = check_gamma(gamma)
    t = t_statistic(scores, sample)
    mu_plus, variance = null_moments(scores, gamma)
    if method == "normal":
        p = pvalue_normal(sign * t, mu_plus, variance)
    elif method == "exact":
        p = pvalue_exact(sign * np.asarray(scores, dtype=float), sign * t, gamma)
    elif method == "montecarlo":
        p = pvalue_montecarlo(scores, sign * t, gamma, n_draws, seed)
    else:
        raise ValueError(f"method must be normal, exact or montecarlo, got {method!r}")
    return TestResult(
        statistic=t,
        null_mean=sign * mu_plus,
        null_sd=math.sqrt(variance),
        p_value=p,
        gamma=gamma,
        method=method,
        direction="upper" if sign > 0 else "lower",
        tau=tau_label,
    )


def time_specific_test(sample, tau, gamma=1.0, method="normal",
                       direction="benefit", n_draws=100_000, seed=0) -> TestResult:
    """Test of no effect up to ``tau`` using pseudo-observation scores.

    ``direction="benefit"`` (the default) tests for a treated survival
    advantage, which the stored event-probability orientation puts in the
    lower tail of the statistic, and ``"harm"`` for the reverse.  gamma = 1
    gives the randomization p-value, gamma > 1 the worst-case bound.
    """
    sign = _sign("pseudo", direction)
    scores = pair_differences(sample, "pseudo", tau)
    return _score_test(scores, sample, gamma, method, sign, tau,
                       n_draws=n_draws, seed=seed)


@dataclass(frozen=True)
class SensitivityValue:
    """Smallest gamma at which the worst-case p-value crosses alpha."""

    value: float
    already_sensitive: bool
    exceeded_max: bool
    alpha: float


def sensitivity_value(sample, tau=None, grid=None, alpha=0.05, tol=1e-3,
                      gamma_max=10.0, direction="benefit", include_ppw=False,
                      seed=0) -> SensitivityValue:
    """Bisect for the gamma where the worst-case p-value crosses ``alpha``.

    Exactly one of ``tau`` (time-specific test) or ``grid`` (overall
    max-type test) must be given.  ``direction`` is ``"benefit"`` (a treated
    survival advantage) or ``"harm"``.
    Returns gamma = 1 flagged ``already_sensitive`` when even the
    randomization p-value exceeds alpha, and ``gamma_max`` flagged
    ``exceeded_max`` when the worst-case p-value stays below alpha on the
    whole range.  With ``grid``, each step is decided from the column-tail
    bounds of the max test when one of them settles ``p <= alpha``, and the
    MVN is integrated only otherwise; the result is unchanged.
    """
    if (tau is None) == (grid is None):
        raise ValueError("give exactly one of tau or grid")
    p_at = _worst_case_p(sample, tau, grid, direction, include_ppw, seed)
    return _search(p_at, alpha, tol, gamma_max)


def _worst_case_p(sample, tau, grid, direction, include_ppw, seed, mvn_tol=1e-4):
    """``(gamma, alpha=None) -> worst-case normal p``, with the scores built once.

    Given ``alpha``, a grid's max test may return a bound on the same side
    of alpha as its p instead (see ``overall._max_test_from_columns``).
    """
    sign = _sign("pseudo", direction)
    if tau is not None:
        if include_ppw:
            raise ValueError("include_ppw applies only to a grid")
        scores = pair_differences(sample, "pseudo", tau)
        return lambda g, alpha=None: _score_test(scores, sample, g, "normal",
                                                 sign, tau).p_value
    from .overall import _max_diff, _max_test_from_columns

    diff = _max_diff(sample, grid, include_ppw)
    return lambda g, alpha=None: _max_test_from_columns(
        diff.D, diff.sigma, sample.assignment, check_gamma(g), "normal", sign,
        tol=mvn_tol, seed=seed, alpha=alpha)[1]


def _search(p_at, alpha, tol, gamma_max) -> SensitivityValue:
    """Bisection behind ``sensitivity_value``; assumes p_at rises with gamma.

    ``p_at(gamma, alpha)`` need only fall on the same side of alpha as p.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if p_at(1.0, alpha) > alpha:
        return SensitivityValue(1.0, True, False, alpha)
    if p_at(gamma_max, alpha) <= alpha:
        return SensitivityValue(gamma_max, False, True, alpha)
    lo, hi = 1.0, gamma_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if p_at(mid, alpha) <= alpha:
            lo = mid
        else:
            hi = mid
    return SensitivityValue(0.5 * (lo + hi), False, False, alpha)
