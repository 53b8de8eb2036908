"""Worst-case randomization tests: every tail the library computes.

The paired statistic is ``T = sum_i d_i V_i``.  Under the bounded
odds-ratio assignment model with parameter ``gamma >= 1``, the worst case
for the upper tail replaces each term by ``|d_i|`` times an independent
sign that is positive with probability ``gamma / (1 + gamma)``; gamma = 1
recovers the plain randomization distribution.  Every tail here is that
upper tail; the other tail is the upper tail of ``-T``, with the sign from
``scores._sign``.  ``_column_sums`` reduces a score vector, a matrix or a
stack over its pairs, column by column, to ``sum d_i V_i``, ``sum |d_i|``
and ``sum d_i^2``; ``_null_moments`` and ``_normal_tails``, each column's
one normal tail, are arithmetic on those sums.  ``_max_test_rows`` gives
the worst-case tail of the max for each row of a column mask, from the
sums of one sample shared by the rows or of a stack: the MVN of the row's
columns (``_correlation_rows``), clamped into the first- and second-order
bounds on the union of the column tails (``_union_bounds``); the masks
leave out the columns ``_dropped`` finds once per matrix or study block.
``score_test`` is the one test of a score vector (pseudo at tau, log-rank
or PW), by its normal tail, ``_pvalue_exact`` or ``pvalue_montecarlo``, and
``sensitivity_value`` bisects the worst-case max p of a built difference
matrix (one column: the time-specific search).
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
    # numpy's scalar ** is Python's pow but gives inf, not OverflowError, past
    # gamma = 1.34e154 (variance 0); multiplying by 4 last changes no bit
    with np.errstate(over="ignore"):
        spread = 4.0 * (gamma / np.float64(gamma + 1.0) ** 2)
    return (gamma - 1.0) / (gamma + 1.0) * abs_sum, spread * sq_sum


def _normal_tails(t, mean, variance):
    """``(limits, tails)``: the standardized limits ``(t - mean) / sqrt(variance)``
    and their normal upper tails ``Pr(Z >= limit)``, elementwise over sums
    the library built.  Zero variance gives the tail 1 when ``t`` does not
    exceed the mean, else 0 (no dispersion means no evidence)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        limits = (t - mean) / np.sqrt(variance)
    # ndtr(-z), not 1 - ndtr(z), which rounds to 0 from z = 9 on
    return limits, np.where(variance == 0.0, t <= mean, ndtr(-limits))


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
    return t, mean, variance, _normal_tails(t, mean, variance)[1]


def _pvalue_exact(d, t, gamma) -> float:
    """Worst-case upper tail ``Pr(T >= t)`` of the float scores ``d`` by exact
    enumeration: the kernel of ``score_test(method="exact")``, which checks
    its arguments on entry.

    Enumerates the 2^k sign patterns over the k pairs with nonzero
    differences (tied pairs contribute exactly zero).  Ties at the observed
    value are included in the tail.  Only ``|d_i|`` is read, so ``-d`` gives
    the same p; the lower tail of ``T`` is this tail at ``-t``.
    """
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
    d = check_reals(scores, "scores must be real numbers")
    t = _check_real(t, math.isfinite, "t must be finite")
    if not np.isfinite(d).all():  # a NaN compares false, so reads as the most significant tail
        raise ValueError("scores must be finite")
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
        p = _pvalue_exact(scores, t, gamma)
    elif method == "montecarlo":
        p = pvalue_montecarlo(scores, t, gamma, n_draws, seed)
    # + 0.0 turns -0.0 into 0.0
    return TestResult(statistic=float(sign * t), null_mean=float(sign * mu_plus + 0.0),
                      null_sd=math.sqrt(variance), p_value=float(p), gamma=gamma, method=method,
                      direction="upper" if sign > 0 else "lower", tau=tau)


def correlations(D, gamma=1.0) -> np.ndarray:
    """Correlation matrix of the max statistic's columns of an (I, L) ``D``.

    At gamma = 1 the normalized Gram matrix of the columns, the score
    correlation matrix; above 1 that of ``np.abs(D)``, its worst-case
    (absolute-product) version.  The one-row case of ``_correlation_rows``,
    so a subset of the columns, laid out alike, gets the same bits.
    """
    D, gamma = np.asarray(D, dtype=float), check_gamma(gamma)
    sq = np.sum(D ** 2, axis=0)
    if np.any(sq == 0.0):
        raise ValueError("every column needs positive score dispersion")
    return _correlation_rows(D, np.ones((1, D.shape[-1]), dtype=bool), gamma, sq)[0]


def _correlation_rows(D, keep, gamma, sq):
    """(R, L, L) correlations of the columns each row of ``keep`` (R, L) holds,
    0 elsewhere, over the square sums ``sq``, of ``|D|`` above gamma = 1.  One
    einsum per matrix, shared (I, L) or stacked (R, I, L), sums each entry on
    its own, so only the layout sets its bits (a stacked einsum regroups)."""
    X = np.abs(D) if gamma != 1.0 else D
    gram = np.array([np.einsum("il,ik->lk", x, x) for x in X.reshape((-1,) + X.shape[-2:])])
    with np.errstate(divide="ignore", invalid="ignore"):  # a dropped column is 0 / 0
        rho = np.where(keep[:, :, None] & keep[:, None, :],
                       gram / np.sqrt(sq[..., :, None] * sq[..., None, :]), 0.0)
    np.einsum("rll->rl", rho)[...] = keep  # a view of the diagonals
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
    """Mask, in ``sigma``'s shape, of the columns a max test leaves out: zero
    dispersion, or equal to an earlier column (equal ``sigma`` and ``paired``
    sums, then D), of one matrix (I, L) with (L,) sums or of each matrix of
    a stack (R, I, L) with (R, L) sums.  Taken once per matrix or block."""
    same = np.tril((sigma[..., :, None] == sigma[..., None, :]) & (sigma[..., :, None] > 0.0)
                   & (paired[..., :, None] == paired[..., None, :]), -1)
    for *r, l, j in zip(*np.nonzero(same)):
        same[(*r, l, j)] = np.array_equal(D[(*r, slice(None), l)], D[(*r, slice(None), j)])
    return (sigma == 0.0) | same.any(axis=-1)


def _max_test_from_columns(D, sigma, assignment, gamma, method, orient,
                           tol=1e-4, seed=0, alpha=None):
    """``_max_test_rows`` of one sample's (I, L) ``D`` and (L,) ``sigma`` on
    raw arrays, taking the pair sums of ``D`` and ``assignment`` and its
    dropped columns (``_dropped``) here, with floats out.  ``method`` accepts
    only ``"normal"``: the benchmark's reference recorder passes it and pins
    this signature.  Library code passes its own sums and masks."""
    _normal_only(method)
    sums = _column_sums(D, assignment)
    keep = ~_dropped(D, sigma, sums[0])
    m, p = _max_test_rows(D, keep[None], sums, gamma, orient, tol, [seed], alpha)
    return float(m[0]), float(p[0])


def _max_test_rows(D, keep, sums, gamma, orient, tol, seed, alpha=None):
    """Worst-case p-value of the max statistic on already-built columns.

    ``orient`` is +1 to test the upper tail of the stored columns and -1
    for the lower tail (the benefit direction of pseudo columns).  Each row
    of ``keep`` (R, L) is one test of the columns it holds, with ``seed``
    one seed per row and ``m``, ``p`` (R,) arrays.  ``D`` is one sample's
    (I, L), shared by every row, or a stack (R, I, L), each ``D[r]`` laid
    out as one sample's, and ``sums`` its ``_column_sums`` with the
    assignment, which hold no gamma and give ``sigma = sqrt(sum d^2)``; the
    correlations (``_correlation_rows``) take one pass over each matrix.
    ``keep`` leaves out the ``_dropped`` columns, which the caller finds
    once, and each row gets the bits of the one-row call on its columns (no
    correlation's bits depend on the columns a row keeps); with none it gets
    (nan, 1).  More than ``mvnorm.MAX_DIM`` columns of nonzero dispersion in
    a matrix are refused before any bound decides, and ``_null_moments``
    checks ``gamma``.  Returns (m, p).

    A column whose statistic is the max takes its own oriented statistic as
    its limit, and every column tail is ``_normal_tails`` of the moments
    ``_column_tests`` takes, so a one-column max test is its column test's
    normal tail by construction, bit for bit.  The p is bounded in tail
    space, so a tiny p keeps its digits: first by ``[max_l p_l, min(1,
    sum_l p_l)]`` of the column tails ``p_l``, then, in a row those leave
    open, by the second-order bounds of ``_union_bounds``,
    which decide any row where they meet (one or two live columns, or other
    tails that underflow).  With ``alpha`` the p only decides ``p <= alpha``:
    a row gets second-order bounds only when its first-order bounds straddle
    alpha, a bound that settles it (a lower bound above alpha or an upper one
    at most alpha) is returned, and only when the second-order bounds straddle
    alpha too is the MVN integrated, until its estimate lies more than two
    error estimates from alpha (``mvn_cdf`` with ``level = 1 - alpha``).
    Without ``alpha`` it is integrated to ``tol``.  The estimate is clipped
    into the second-order bounds, which keeps its side of alpha.
    """
    paired, abs_sum, sq_sum = sums
    _check_dim((sq_sum > 0.0).sum(axis=-1).max(initial=0))
    if np.shape(seed) != (len(keep),):
        raise ValueError(f"a stack of {len(keep)} samples needs one seed per sample")
    sigma = np.sqrt(sq_sum)
    with np.errstate(divide="ignore", invalid="ignore"):  # a dropped column is 0 / 0
        stats = np.where(keep, orient * paired / sigma, -np.inf)
        m = stats.max(axis=-1)
        t = np.where(stats == m[:, None], orient * paired, m[:, None] * sigma)
    # the oriented columns have the same |D|, hence the same moments
    limits, tails = _normal_tails(t, *_null_moments(abs_sum, sq_sum, gamma))
    # clamp in tail space, where 1 - cdf has lost the digits of a tiny tail:
    # the max's tail lies between the largest column tail and their sum
    tails = np.where(keep, tails, 0.0)
    sums = _last(tails)
    low, high = tails.max(axis=-1), np.minimum(1.0, sums)

    def straddled():
        return low < high if alpha is None else (low <= alpha) & (alpha < high)

    rows = np.flatnonzero(straddled())
    if rows.size:
        X, sq = (D, sq_sum) if D.ndim < 3 else (D[rows], sq_sum[rows])
        rho = _correlation_rows(X, keep[rows], gamma, sq)
        low[rows], high[rows] = _union_bounds(limits[rows], rho, tails[rows], sums[rows],
                                              low[rows], high[rows])
    p, level = high.copy(), None
    if alpha is not None:
        p, level = np.where(low > alpha, low, high), 1.0 - alpha
    for i in np.flatnonzero(straddled()[rows]):
        r, k = rows[i], keep[rows[i]]
        cdf = mvn_cdf(limits[r, k], rho[i][np.ix_(k, k)], tol=tol, seed=seed[r], level=level)
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
    return _search(lambda g, alpha: _max_test_rows(
        diff.D, ~diff.dropped[None], diff.sums, g, sign, mvn_tol, [seed], alpha)[1][0],
        alpha, tol, gamma_max)


def _search(p_at, alpha, tol, gamma_max) -> SensitivityValue:
    """Bisection behind ``sensitivity_value``; assumes p_at rises with gamma.

    ``p_at(gamma, alpha)`` need only fall on the same side of alpha as p
    (see ``_max_test_rows``).  Its caller checks the arguments.
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
