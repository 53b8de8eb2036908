"""Worst-case randomization tests: every tail the library computes.

The paired statistic is ``T = sum_i d_i V_i``.  Under the bounded
odds-ratio assignment model with parameter ``gamma >= 1``, the worst case
for the upper tail replaces each term by ``|d_i|`` times an independent
sign that is positive with probability ``gamma / (1 + gamma)``; gamma = 1
recovers the plain randomization distribution.  The p-value primitives
compute only that upper tail; the other tail is the upper tail of ``-T``,
with the sign from ``scores._sign``.  ``_column_sums`` reduces a score
vector, a matrix or a stack over its pairs, column by column, to
``sum d_i V_i``, ``sum |d_i|`` and ``sum d_i^2``; ``_null_moments`` and
``_column_tests`` are arithmetic on those sums.  ``_max_test_from_columns``
gives the worst-case tail of the max over one sample or a stack: the MVN of
the live columns, clamped into the first- and second-order bounds on the
union of the column tails (``_union_bounds``), with degenerate columns
masked.
``score_test`` is the one test of a score vector (pseudo at tau, log-rank
or PW), and ``sensitivity_value`` bisects the worst-case max p of a built
difference matrix; a one-column matrix gives the time-specific search.
Each public call runs its inputs' ``errors`` rules on entry, before any
shortcut, and the CLI parses its flags with the same rules.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, owens_t

from ._parallel import map_ranges
from .errors import (_check_real, check_alpha, check_draws, check_gamma, check_reals,
                     check_seed, check_tau, check_tol)
from .mvnorm import _check_dim, mvn_cdf
from .scores import _sign, pair_differences

EXACT_PAIR_CAP = 20
_SIGN_BUFFER = 1 << 17  # signs in each Monte Carlo worker's reused float buffer


def _tail_args(scores, t):
    """Scores as a float array and ``t`` as a float, all real and finite.

    A NaN compares false with everything, so it would read as the most
    significant tail.
    """
    d = check_reals(scores, "scores must be real numbers")
    t = _check_real(t, math.isfinite, "t must be finite")
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


def _null_moments(abs_sum, sq_sum, gamma=1.0):
    """Worst-case mean ``[(gamma-1)/(1+gamma)] sum |d_i|`` and variance
    ``[4 gamma/(1+gamma)^2] sum d_i^2`` of the upper-tail bounding statistic,
    from those sums of ``_column_sums``, in their shape."""
    gamma = check_gamma(gamma)
    return (gamma - 1.0) / (gamma + 1.0) * abs_sum, 4.0 * gamma / (gamma + 1.0) ** 2 * sq_sum


def pvalue_normal(t, mean, variance):
    """Normal upper tail ``Pr(T >= t)`` with the degenerate-variance convention.

    Zero variance returns 1 when the statistic does not exceed the mean,
    else 0 (no dispersion means no evidence).  Array arguments give one
    p-value per element; scalars give a float.  Every argument must be
    real and finite, as in the other tails.
    """
    t, mean, variance = np.broadcast_arrays(*(
        check_reals(x, "t, mean and variance must be real numbers") for x in (t, mean, variance)))
    if not all(np.isfinite(x).all() for x in (t, mean, variance)):
        raise ValueError("t, mean and variance must be finite")
    if np.any(variance < 0):
        raise ValueError("variance must be >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (t - mean) / np.sqrt(variance)
    # ndtr(-z), not 1 - ndtr(z), which rounds to 0 from z = 9 on
    p = np.where(variance == 0.0, t <= mean, ndtr(-z))
    return float(p) if p.ndim == 0 else p


def _column_sums(D, assignment):
    """``(paired, abs_sum, sq_sum)``: ``sum_i d_i V_i``, ``sum_i |d_i|`` and
    ``sum_i d_i^2`` over the pairs of one (I,) score vector, of each column of
    an (I, L) matrix, or of each matrix of a stack (R, I, L) with (R, I) V."""
    paired = D.T @ assignment if D.ndim < 3 else (
        np.swapaxes(D, 1, 2) @ assignment[..., None])[..., 0]
    units = -min(D.ndim, 2)  # the pair axis of scores, a matrix or a stack
    return paired, np.sum(np.abs(D), axis=units), np.sum(D * D, axis=units)


def _column_tests(sums, gamma, orient):
    """Worst-case normal test of each column of ``sums``, its ``_column_sums``
    (which hold no gamma), in the upper tail (``orient`` +1) or the lower
    (-1): ``(t, mean, variance, p)``, with ``t = orient * paired``."""
    t = orient * sums[0]
    mean, variance = _null_moments(*sums[1:], gamma)
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
    probability gamma/(1+gamma) rounded up to a multiple of 2^-32 (above
    it by less than 2^-32, so the tail is conservative; exactly 1/2 at
    gamma = 1), times ``|d_i|``; zero pairs contribute nothing and draw no
    sign.  Ties at ``t`` count.  Only ``|d_i|`` is read, so ``-d`` gives
    the same p; the lower tail is this tail at ``-t``.  This is the one
    simulator: it serves one-column tests only, and the max-type test has
    only its normal method.

    ``seed`` is SeedSequence entropy (an int, a sequence of ints, a
    ``SeedSequence`` or ``None``); a ``Generator`` or ``BitGenerator`` is
    refused with numpy's ``TypeError``.  Each 64-bit word of
    ``PCG64(seed).random_raw()`` gives two 32-bit uniforms, its low half
    first, and a sign is positive when its uniform is below
    ``ceil(2**32 * gamma / (1 + gamma))`` (``_plus_threshold``).  Over the
    k nonzero pairs, draw ``j`` reads words ``[j w, (j + 1) w)`` with
    ``w = ceil(k / 2)``; an odd k leaves the last half of each draw
    unused.  ``[0, n_draws)`` is cut into one contiguous range per
    available CPU (fewer when a range would not fill one buffer;
    ``map_ranges``), and each range runs on a copy of the one stream
    advanced to its first draw, so the p-value is the same whatever the
    core count.  Each thread holds 1.5 MiB of signs and raw words at a
    time for k <= 2**17 (``_count_hits``), whatever ``n_draws``.
    """
    gamma = check_gamma(gamma)
    n_draws = check_draws(n_draws)
    d, t = _tail_args(scores, t)
    tol = _tie_tol(d)
    mags = np.abs(d[d != 0.0])
    if mags.size == 0:
        return 1.0 if 0.0 >= t - tol else 0.0
    words = (mags.size + 1) // 2
    mags = np.append(mags, np.zeros(2 * words - mags.size))  # one zero for odd k
    # T = 2 (plus @ mags) - sum |d|, with plus the 0/1 indicators of + signs
    bound = (t - tol + mags.sum()) / 2.0
    threshold, bits = _plus_threshold(gamma), np.random.PCG64(seed)
    hits = sum(map_ranges(lambda lo, hi: _count_hits(
        copy.deepcopy(bits).advance(lo * words), hi - lo, mags, threshold, bound),
        n_draws, max(1, _SIGN_BUFFER // mags.size)))
    return hits / n_draws


def _plus_threshold(gamma) -> int:
    """``ceil(2**32 * gamma / (1 + gamma))`` in exact integer arithmetic: a
    32-bit uniform below it gives a positive sign."""
    num, den = gamma.as_integer_ratio()
    return -(-(num << 32) // (num + den))


def _count_hits(bits, n, mags, threshold, bound) -> int:
    """How many of the next ``n`` draws of the bit generator ``bits`` give
    ``plus @ mags >= bound``, ``mags`` of even length.

    Up to ``_SIGN_BUFFER // len(mags)`` draws at a time: their raw words,
    half as many as signs, are read as 32-bit uniforms, and ``u <
    threshold`` is written as 0.0/1.0 into one reused float buffer (1.5
    MiB in all for ``len(mags) <= 2**17``, whatever ``n``).
    """
    width = mags.size
    per_fill = min(n, max(1, _SIGN_BUFFER // width))
    plus = np.empty((per_fill, width))
    hits = 0
    for lo in range(0, n, per_fill):
        rows = min(per_fill, n - lo)
        u = bits.random_raw(rows * width // 2).astype("<u8", copy=False).view("<u4")
        np.less(u, threshold, out=plus[:rows].reshape(-1))
        del u  # so the next fill's words replace these rather than join them
        hits += int(np.count_nonzero(plus[:rows] @ mags >= bound))
    return hits


def score_test(sample, score="pseudo", tau=None, gamma=1.0, method="normal",
               direction="benefit", n_draws=100_000, seed=0) -> TestResult:
    """Test of no effect with pair differences of one score kind.

    ``score`` is ``"pseudo"`` (pseudo-observations at ``tau``, which only
    they take and require), ``"logrank"`` or ``"pw"`` (whole follow-up).
    ``direction="benefit"`` (the default) tests for a treated survival
    advantage, ``"harm"`` for the reverse; the result records the tested
    tail of ``sum d_i V_i``.  gamma = 1 gives the
    randomization p-value, gamma > 1 the worst-case bound.  ``method`` is
    ``"normal"``, ``"exact"`` or ``"montecarlo"`` (``n_draws`` and
    ``seed``); the exact and Monte Carlo tails read only ``|d_i|``, so
    they take the unsigned scores in either tail.
    """
    sign = _sign(score, direction)
    gamma, n_draws = check_gamma(gamma), check_draws(n_draws)
    if method not in ("normal", "exact", "montecarlo"):
        raise ValueError(f"method must be normal, exact or montecarlo, got {method!r}")
    scores = pair_differences(sample, score, tau)
    tau = None if tau is None else check_tau(tau)
    t, mu_plus, variance, p = _column_tests(_column_sums(scores, sample.assignment), gamma, sign)
    if method == "exact":
        p = pvalue_exact(scores, t, gamma)
    elif method == "montecarlo":
        p = pvalue_montecarlo(scores, t, gamma, n_draws, seed)
    # + 0.0 turns -0.0 into 0.0
    return TestResult(statistic=float(sign * t), null_mean=float(sign * mu_plus + 0.0),
                      null_sd=math.sqrt(variance), p_value=p, gamma=gamma, method=method,
                      direction="upper" if sign > 0 else "lower", tau=tau)


def correlations(D, gamma=1.0) -> np.ndarray:
    """Correlation matrix of the max statistic's columns of an (I, L) ``D``.

    At gamma = 1 the normalized Gram matrix of the columns, the score
    correlation matrix; above 1 that of ``np.abs(D)``, its worst-case
    (absolute-product) version.
    """
    D = np.asarray(D, dtype=float)
    if check_gamma(gamma) != 1.0:
        D = np.abs(D)
    sigma2 = np.sum(D ** 2, axis=0)
    if np.any(sigma2 == 0.0):
        raise ValueError("every column needs positive score dispersion")
    rho = (D.T @ D) / np.sqrt(np.outer(sigma2, sigma2))
    np.fill_diagonal(rho, 1.0)
    return rho


def _normal_only(method):
    if method != "normal":
        raise ValueError(f"the max-type test has only the normal method, got {method!r}")


def _owen_slope(a, b, rho, s):
    """Owen's T slope ``(b - rho a) / (a s)`` of the ``a`` term of
    ``_pair_tails``, with its limit at ``a = 0`` taken from the side that the
    half-step of that formula assumes; nan where ``s = 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a != 0.0, (b - rho * a) / (a * s),
                        np.where(b != 0.0, -np.sign(b) * np.inf, (1.0 - rho) / s))


def _pair_tails(a, b, rho):
    """``Pr(X > a, Y > b)`` of standard normals with correlation ``rho``,
    elementwise over finite limits.

    Owen (1956): ``(p_a + p_b) / 2 - T(a, .) - T(b, .)``, less 1/2 when the
    limits have opposite signs or one is 0 and their sum positive, where
    ``p_a = ndtr(-a)``.  ``rho`` beyond +-1 by rounding is clipped, and
    ``rho = 1`` gives ``ndtr(-max(a, b))``, ``rho = -1`` gives
    ``max(0, p_a - ndtr(b))``.  The result is clipped into the Frechet
    bounds ``[max(0, p_a + p_b - 1), min(p_a, p_b)]``.
    """
    rho = np.clip(rho, -1.0, 1.0)
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    pa, pb = ndtr(-a), ndtr(-b)
    signs = np.sign(a) * np.sign(b)
    half = (signs < 0) | ((signs == 0) & (a + b > 0))
    p = 0.5 * (pa + pb) - owens_t(a, _owen_slope(a, b, rho, s)) \
        - owens_t(b, _owen_slope(b, a, rho, s)) - 0.5 * half
    p = np.where(rho == 1.0, ndtr(-np.maximum(a, b)),
                 np.where(rho == -1.0, np.maximum(0.0, pa - ndtr(b)), p))
    return np.clip(p, np.maximum(0.0, pa + pb - 1.0), np.minimum(pa, pb))


def _last(x):
    """Left-to-right sums along the last axis: a zero among the terms leaves
    the bits, so a dropped column's zeros change no sum."""
    return np.cumsum(x, axis=-1)[..., -1]


def _union_bounds(limits, rho, tails, s1, low, high):
    """Second-order bounds on ``Pr(X_l > a_l for some l)``, one row each.

    ``limits`` (R, L), ``rho`` (R, L, L) and ``tails`` (R, L) hold each row's
    limits, correlations and column tails ``p_l``, with zero tails and zero
    correlations in its dropped columns; ``s1`` is ``sum_l p_l`` and
    ``[low, high]`` the first-order bounds.  From the pair tails ``p_ij``
    (``_pair_tails``) and ``S2 = sum_{i<j} p_ij``: Hunter's (1976) upper
    bound ``S1 - `` the heaviest spanning tree of the ``p_ij`` (Prim's, over
    all rows at once), and the larger of Dawson and Sankoff's (1967)
    ``2 S1 / (k + 1) - 2 S2 / (k (k + 1))`` with ``k = 1 + floor(2 S2 / S1)``
    and de Caen's (1997) ``sum_l p_l^2 / sum_j p_lj`` (``p_ll = p_l``) below.
    Both are intersected with ``[low, high]``, the upper bound first, and
    the lower is capped by it.  With two live columns both bounds are
    ``S1 - p_12`` in the same bits (Dawson-Sankoff at ``k = 1``), so they
    meet.  Dropped columns are events of probability 0 and change no bit.
    """
    rows, width = limits.shape
    i, j = np.triu_indices(width, 1)
    both = (tails[:, i] > 0.0) & (tails[:, j] > 0.0)  # p_ij <= min(p_i, p_j)
    pairs = np.where(both, _pair_tails(limits[:, i], limits[:, j], rho[:, i, j]), 0.0)
    weight = np.zeros(rho.shape)
    weight[:, i, j] = weight[:, j, i] = pairs
    tree, best = np.zeros(rows), weight[:, 0].copy()
    placed = np.zeros((rows, width), dtype=bool)
    placed[:, 0] = True
    at = np.arange(rows)
    for _ in range(width - 1):
        edge = np.where(placed, -np.inf, best)
        v = edge.argmax(axis=-1)  # the heaviest edge into the tree
        tree += edge[at, v]
        placed[at, v] = True
        np.maximum(best, weight[at, v], out=best)
    high = np.clip(s1 - tree, low, high)
    s2 = _last(pairs)
    k = 1.0 + np.floor(2.0 * s2 / s1)
    dawson = 2.0 * s1 / (k + 1.0) - 2.0 * s2 / (k * (k + 1.0))
    weight[:, np.arange(width), np.arange(width)] = tails
    with np.errstate(invalid="ignore"):  # an underflowed tail is 0 / 0
        de_caen = _last(np.where(tails > 0.0, tails * tails / _last(weight), 0.0))
    return np.minimum(np.maximum(np.maximum(low, dawson), de_caen), high), high


def _dropped(D, sigma, paired):
    """(R, L) mask of the columns a max test leaves out of a stack (R, I, L):
    zero dispersion, or equal to an earlier column of their sample (equal
    ``sigma`` and ``paired`` sums, then D)."""
    same = np.tril((sigma[:, :, None] == sigma[:, None, :]) & (sigma[:, :, None] > 0.0)
                   & (paired[:, :, None] == paired[:, None, :]), -1)
    for r, l, j in zip(*np.nonzero(same)):
        same[r, l, j] = np.array_equal(D[r, :, l], D[r, :, j])
    return (sigma == 0.0) | same.any(axis=-1)


def _max_test_from_columns(D, sigma, assignment, gamma, method, orient,
                           tol=1e-4, seed=0, alpha=None):
    """Worst-case p-value of the max statistic on already-built columns.

    ``orient`` is +1 to test the upper tail of the stored columns and -1
    for the lower tail (the benefit direction of pseudo columns).  ``D`` is
    one sample's (I, L) matrix, with ``sigma`` (L,) and ``assignment``
    (I,), or a stack of them, (R, I, L) with (R, L) and (R, I), each
    ``D[r]`` laid out as one sample's; ``seed`` is then a sequence of one
    seed per sample, and ``m`` and ``p`` are (R,) arrays.  A column with
    zero dispersion or copying an earlier one (``_dropped``) is masked, so
    each sample gets the bits of the one-sample call on its other columns;
    with none live it gets (nan, 1), and more than ``mvnorm.MAX_DIM`` of
    nonzero dispersion are refused before any bound decides.  ``gamma`` is
    checked by ``_null_moments``.  Returns (m, p).
    ``method`` accepts only ``"normal"``, the one method of the max test;
    the benchmark's reference recorder passes it and pins this signature.

    A column whose statistic is the max takes its own oriented statistic as
    its limit, so its tail is bit for bit its column test's normal tail.
    The p is bounded in tail space, so a tiny p keeps its digits: first by
    ``[max_l p_l, min(1, sum_l p_l)]`` of the column tails ``p_l``, then,
    in a row those leave open, by the second-order bounds of
    ``_union_bounds`` from the bivariate tails of its pairs of columns.  The
    bounds decide any row where they meet (one or two live columns, or
    other tails that underflow) without integrating.  With ``alpha`` the
    returned p only decides ``p <= alpha``: a row gets its second-order
    bounds only when its first-order bounds straddle alpha, and the first
    bound that settles the row (a lower bound above alpha or an upper bound
    at most alpha) is returned without integrating.  Only when the
    second-order bounds straddle alpha too is the MVN integrated, and then
    only until its estimate lies more than two error estimates from alpha
    (``mvn_cdf`` with ``level = 1 - alpha``); the estimate is clipped into
    those bounds, which keeps its side of alpha.  Without ``alpha`` the MVN
    is integrated to ``tol`` and clipped into the second-order bounds.
    """
    _normal_only(method)
    if D.ndim == 2:
        m, p = _max_test_from_columns(D[None], sigma[None], np.asarray(assignment)[None], gamma,
                                      method, orient, tol, [seed], alpha)
        return float(m[0]), float(p[0])
    _check_dim((sigma > 0.0).sum(axis=-1).max(initial=0))
    if np.shape(seed) != (len(D),):
        raise ValueError(f"a stack of {len(D)} samples needs one seed per sample")
    paired, abs_sum, sq_sum = _column_sums(D, assignment)
    keep = ~_dropped(D, sigma, paired)
    with np.errstate(divide="ignore", invalid="ignore"):  # a dropped column is 0 / 0
        stats = np.where(keep, orient * paired / sigma, -np.inf)
        m = stats.max(axis=-1)
        # the oriented columns have the same |D|, hence the same moments
        mean, variance = _null_moments(abs_sum, sq_sum, gamma)
        t = np.where(stats == m[:, None], orient * paired, m[:, None] * sigma)
        limits = (t - mean) / np.sqrt(variance)
    # clamp in tail space, where 1 - cdf has lost the digits of a tiny tail:
    # the max's tail lies between the largest column tail and their sum
    tails = np.where(keep, ndtr(-limits), 0.0)
    sums = _last(tails)
    low, high = tails.max(axis=-1), np.minimum(1.0, sums)

    def straddled():
        return low < high if alpha is None else (low <= alpha) & (alpha < high)

    rows = np.flatnonzero(straddled())
    corr = [correlations(D[r][:, keep[r]], gamma) for r in rows]
    if rows.size:
        rho = np.zeros((rows.size,) + keep.shape[-1:] * 2)
        for c, k, r in zip(corr, keep[rows], rho):
            r[np.ix_(k, k)] = c
        low[rows], high[rows] = _union_bounds(limits[rows], rho, tails[rows], sums[rows],
                                              low[rows], high[rows])
    p, level = high.copy(), None
    if alpha is not None:
        p, level = np.where(low > alpha, low, high), 1.0 - alpha
    open_ = straddled()
    for r, c in zip(rows, corr):
        if open_[r]:
            cdf = mvn_cdf(limits[r, keep[r]], c, tol=tol, seed=seed[r], level=level)
            p[r] = np.clip(1.0 - cdf, low[r], high[r])
    live = keep.any(axis=-1)
    return np.where(live, m, np.nan), np.where(live, p, 1.0)


@dataclass(frozen=True)
class SensitivityValue:
    """Smallest gamma at which the worst-case p-value crosses alpha."""

    value: float
    already_sensitive: bool
    exceeded_max: bool
    alpha: float


def sensitivity_value(diff, alpha=0.05, tol=1e-3, gamma_max=10.0,
                      direction="benefit", seed=0, mvn_tol=1e-4) -> SensitivityValue:
    """Bisect for the gamma where the worst-case max p of ``diff`` crosses ``alpha``.

    ``diff`` is a built ``DiffMatrix``; ``diff_matrix(sample, [tau])``
    gives the time-specific search, whose one-column max tail is that
    column's normal tail bit for bit.  ``direction`` is ``"benefit"`` (a
    treated survival advantage) or ``"harm"``.  Returns gamma = 1 flagged
    ``already_sensitive`` when even the randomization p-value exceeds
    alpha, and ``gamma_max`` flagged ``exceeded_max`` when the worst-case
    p-value stays below alpha on the whole range.  Each step is decided
    from the first- or second-order bounds of the max test when one of them
    settles ``p <= alpha`` (two columns always do), and otherwise from an
    MVN integration (error tolerance ``mvn_tol``, QMC seed ``seed``, a whole
    number >= 0) stopped once its error bar settles it; a step can go the
    other way than with the fully integrated p only when that p lies within
    a few error estimates of alpha.
    """
    sign = _sign("pseudo", direction)
    alpha, tol, seed = check_alpha(alpha), check_tol(tol, "tol"), check_seed(seed)
    gamma_max, mvn_tol = check_gamma(gamma_max), check_tol(mvn_tol, "mvn_tol")
    return _search(lambda g, alpha: _max_test_from_columns(
        diff.D, diff.sigma, diff.assignment, g, "normal", sign,
        tol=mvn_tol, seed=seed, alpha=alpha)[1], alpha, tol, gamma_max)


def _search(p_at, alpha, tol, gamma_max) -> SensitivityValue:
    """Bisection behind ``sensitivity_value``; assumes p_at rises with gamma.

    ``p_at(gamma, alpha)`` need only fall on the same side of alpha as p
    (see ``_max_test_from_columns``).  Its caller checks the arguments.
    """
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
