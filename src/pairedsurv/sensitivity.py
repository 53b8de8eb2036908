"""Time-specific randomization tests and worst-case sensitivity bounds.

The paired statistic is ``T = sum_i d_i V_i``.  Under the bounded
odds-ratio assignment model with parameter ``gamma >= 1``, the worst case
for the upper tail replaces each term by ``|d_i|`` times an independent
sign that is positive with probability ``gamma / (1 + gamma)``; gamma = 1
recovers the plain randomization distribution.  The p-value primitives
compute only that upper tail; the other tail is the upper tail of ``-T``,
with the sign from ``scores._sign``, and ``_column_tests`` gives the normal
test of every column of a difference matrix in one call.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._parallel import map_ranges
from .scores import _sign, pair_differences

EXACT_PAIR_CAP = 20
_SIGN_BUFFER = 1 << 18  # doubles in each Monte Carlo worker's reused sign buffer


def check_gamma(gamma) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"gamma must be a finite real >= 1, got {gamma!r}")
    return gamma


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _whole(value):
    """A number with no fractional part, as int; booleans are refused."""
    if _is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ValueError(f"must be a whole number, got {value!r}")


def _tail_args(scores, t):
    """Scores as a float array and ``t`` as a float, both finite.

    A NaN compares false with everything, so it would read as the most
    significant tail.
    """
    d = np.asarray(scores, dtype=float)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if not np.isfinite(d).all():
        raise ValueError("scores must be finite")
    return d, t


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
    p-value per element; scalars give a float.  Every argument must be
    finite, as in the other tails.
    """
    t, mean, variance = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (t, mean, variance)))
    if not all(np.isfinite(x).all() for x in (t, mean, variance)):
        raise ValueError("t, mean and variance must be finite")
    if np.any(variance < 0):
        raise ValueError("variance must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (t - mean) / np.sqrt(variance)
    # ndtr(-z), not 1 - ndtr(z), which rounds to 0 from z = 9 on
    p = np.where(variance == 0.0, t <= mean, ndtr(-z))
    return float(p) if p.ndim == 0 else p


def _column_tests(D, assignment, gamma, orient):
    """Worst-case normal test of each column of an (I, L) ``D``, or of one (I,)
    score vector, in the upper tail (``orient`` +1) or the lower (-1):
    ``(t, mean, variance, p)`` with ``t = orient * (D.T @ assignment)``."""
    t = orient * (D.T @ assignment)
    mean, variance = null_moments(D, gamma)
    return t, mean, variance, pvalue_normal(t, mean, variance)


def pvalue_exact(scores, t, gamma=1.0) -> float:
    """Worst-case upper tail ``Pr(T >= t)`` by exact enumeration.

    Enumerates the 2^k sign patterns over the k pairs with nonzero
    differences (tied pairs contribute exactly zero).  Ties at the observed
    value are included in the tail.  Only ``|d_i|`` is read, so ``-d`` gives
    the same p; the lower tail of ``T`` is this tail at ``-t``.
    """
    gamma = check_gamma(gamma)
    d, t = _tail_args(scores, t)
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
    nothing and draw no sign.  Ties at ``t`` count.  Only ``|d_i|`` is
    read, so ``-d`` gives the same p; the lower tail is this tail at
    ``-t``.  This is the one simulator: it serves one-column tests only,
    and the max-type test has only its normal method.

    ``seed`` is SeedSequence entropy (an int, a sequence of ints, a
    ``SeedSequence`` or ``None``); a ``Generator`` or ``BitGenerator`` is
    refused with numpy's ``TypeError``.  Draw ``j`` uses row ``j`` of
    ``default_rng(seed).random((n_draws, k))`` over the k nonzero pairs:
    ``[0, n_draws)`` is cut into one contiguous range per available CPU
    (fewer when a range would not fill one buffer; ``map_ranges``), and
    each range runs on a copy of the one ``PCG64(seed)`` stream advanced to
    its first draw, so the p-value is the same whatever the core count.
    Each thread reuses one buffer of at most ``max(2**18, k)`` doubles and
    as many bools (2.3 MiB for k <= 2**18), whatever ``n_draws``.
    """
    gamma = check_gamma(gamma)
    n_draws = _draw_count(n_draws)
    d, t = _tail_args(scores, t)
    tol = _tie_tol(d)
    mags = np.abs(d[d != 0.0]).reshape(-1, 1)
    rows = mags.shape[0]
    if rows == 0:
        return 1.0 if 0.0 >= t - tol else 0.0
    p_plus = gamma / (1.0 + gamma)
    bits = np.random.PCG64(seed)
    hits = sum(map_ranges(lambda lo, hi: _count_hits(
        np.random.Generator(copy.deepcopy(bits).advance(lo * rows)), hi - lo,
        mags, p_plus, t - tol), n_draws, max(1, _SIGN_BUFFER // rows)))
    return hits / n_draws


def _draw_count(n_draws) -> int:
    try:
        n = _whole(n_draws)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"n_draws must be a whole number >= 1, got {n_draws!r}")
    return n


def _count_hits(rng, n, mags, p_plus, bound) -> int:
    """How many of the next ``n`` draws of ``rng`` give ``signs @ mags >= bound``.

    The signs of up to ``_SIGN_BUFFER // len(mags)`` draws at a time are
    made in one reused buffer: uniforms, then ``u < p_plus``, then exact
    ``+1.0``/``-1.0`` written back over the uniforms.
    """
    rows = mags.shape[0]
    per_fill = min(n, max(1, _SIGN_BUFFER // rows))
    u = np.empty(per_fill * rows)
    plus = np.empty(u.size, dtype=bool)
    hits = 0
    for lo in range(0, n, per_fill):
        size = min(per_fill, n - lo) * rows
        signs = u[:size]
        rng.random(out=signs)
        np.less(signs, p_plus, out=plus[:size])
        np.multiply(plus[:size], 2.0, out=signs)
        signs -= 1.0
        hits += int(np.count_nonzero(signs.reshape(-1, rows) @ mags >= bound))
    return hits


def _score_test(scores, sample, gamma, method, sign, tau_label,
                n_draws=100_000, seed=0) -> TestResult:
    """Shared p-value dispatch; ``sign = -1`` tests T's lower tail as -T's upper.
    The exact and Monte Carlo tails read only ``|d_i|``, so they take the
    unsigned scores in either tail."""
    gamma = check_gamma(gamma)
    t, mu_plus, variance, p = _column_tests(scores, sample.assignment, gamma, sign)
    if method == "exact":
        p = pvalue_exact(scores, t, gamma)
    elif method == "montecarlo":
        p = pvalue_montecarlo(scores, t, gamma, n_draws, seed)
    elif method != "normal":
        raise ValueError(f"method must be normal, exact or montecarlo, got {method!r}")
    return TestResult(
        statistic=float(sign * t),
        null_mean=sign * mu_plus + 0.0,  # + 0.0 turns -0.0 into 0.0
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
    bounds of the max test when one of them settles ``p <= alpha``, and
    otherwise from an MVN integration stopped once its error bar settles
    it; a step can go the other way than with the fully integrated p only
    when that p lies within a few error estimates of alpha.
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
        return lambda g, alpha=None: _column_tests(scores, sample.assignment, g, sign)[3]
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
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be > 0 and finite")
    if p_at(1.0, alpha) > alpha:
        return SensitivityValue(1.0, True, False, alpha)
    if p_at(gamma_max, alpha) <= alpha:
        return SensitivityValue(gamma_max, False, True, alpha)
    lo, hi = 1.0, gamma_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        if p_at(mid, alpha) <= alpha:
            lo = mid
        else:
            hi = mid
    return SensitivityValue(0.5 * (lo + hi), False, False, alpha)
