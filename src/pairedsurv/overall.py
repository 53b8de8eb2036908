"""Max-type overall test across a grid of analysis times.

The statistic is the maximum of the per-time standardized paired
statistics.  Its randomization p-value comes from the multivariate normal
CDF with the empirical score correlation matrix, the only method the max
test has (Monte Carlo serves one-column tests only); for gamma > 1 the
worst-case bound uses per-column worst-case moments and the
absolute-product correlation matrix.  A standardized Prentice-Wilcoxon
column can be appended so the max also covers a whole-period comparison.
The p-value is clamped into ``[max_l p_l, min(1, sum_l p_l)]`` of the
column tails ``p_l``, so a tiny p keeps its digits and one column gives
its exact normal tail.  A caller that only compares p with alpha (the
power study, the sensitivity search) takes the decision from those bounds
when one of them decides, and integrates only when they straddle alpha;
its decisions are the same as with the integrated p.  ``_max_corr`` holds
the gamma -> correlation rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateColumnWarning
from .mvnorm import mvn_cdf
from .scores import _sign, pair_difference_matrix, pair_differences
from .sensitivity import TestResult, _score_test, check_gamma, null_moments


def as_grid(grid) -> np.ndarray:
    """Validated grid: strictly increasing positive analysis times."""
    taus = np.asarray(grid, dtype=float).reshape(-1)
    if taus.size < 1:
        raise ValueError("a time grid needs at least one tau")
    if not np.all(taus > 0) or np.any(np.diff(taus) <= 0):
        raise ValueError("grid times must be positive and strictly increasing")
    return taus


@dataclass(frozen=True)
class DiffMatrix:
    """Per-pair score differences, one column per analysis time.

    Columns hold event-probability pseudo-differences; when present, the
    trailing PPW column is the Prentice-Wilcoxon difference negated to the
    same orientation, so every column signals a treated survival advantage
    with negative values.  ``sigma[l] = sqrt(sum_i D[i, l]^2)`` is computed
    from ``D`` when the matrix is built.
    """

    taus: np.ndarray
    D: np.ndarray
    sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.sqrt(np.sum(self.D ** 2, axis=0)))

    @property
    def has_ppw(self) -> bool:
        return self.D.shape[1] > len(self.taus)

    @property
    def labels(self) -> list:
        out = [float(t) for t in self.taus]
        if self.has_ppw:
            out.append("ppw")
        return out


def diff_matrix(sample, grid, include_ppw=False) -> DiffMatrix:
    """Score-difference columns for every grid time (plus optional PPW).

    One call to ``scores.pair_difference_matrix``, so one event table per
    grid: the pooled units are sorted once and each unit's position among
    the event times is looked up once, for every column.  Per tau only the
    cap on that position, the suffix product up to tau and the own-event
    mask are recomputed; the PPW column reads the same table and positions.
    Units are processed in blocks of whole pairs, so the arrays made per
    column are one block long.  Column l equals
    ``pair_differences(sample, "pseudo", grid[l])`` bit for bit.
    """
    taus = as_grid(grid)
    D = pair_difference_matrix(sample, taus, include_pw=include_ppw)
    return DiffMatrix(taus=taus, D=D)


def correlations(D) -> np.ndarray:
    """Normalized Gram matrix of the columns of an (I, L) matrix.

    This is the score correlation matrix; ``correlations(np.abs(D))`` is
    its worst-case (absolute-product) version, used when gamma > 1.
    """
    D = np.asarray(D, dtype=float)
    sigma2 = np.sum(D ** 2, axis=0)
    if np.any(sigma2 == 0.0):
        raise ValueError("every column needs positive score dispersion")
    rho = (D.T @ D) / np.sqrt(np.outer(sigma2, sigma2))
    np.fill_diagonal(rho, 1.0)
    return rho


def _max_corr(D, gamma) -> np.ndarray:
    """Correlation of the max statistic's columns: that of ``D`` at gamma = 1,
    its worst-case (absolute-product) version above."""
    return correlations(D if gamma == 1.0 else np.abs(D))


def _max_test_from_columns(D, sigma, assignment, gamma, method, orient,
                           tol=1e-4, seed=0, alpha=None):
    """p-value machinery for the max statistic on already-built columns.

    ``orient`` is +1 to test the upper tail of the stored columns and -1
    for the lower tail (the benefit direction of pseudo columns).  Columns
    with zero dispersion are dropped; with none left the result is
    (nan, 1).  ``gamma`` must already be checked.  Returns (m, p).
    ``method`` accepts only ``"normal"``, the one method of the max test;
    it stays a parameter because the benchmark's reference recorder passes
    it.

    With ``alpha`` the returned p is a deciding bound,
    not the p-value: when the largest column tail exceeds alpha, or the
    capped sum of the column tails is at most alpha, that bound is returned
    without integrating.  The integrated p is clipped into the same bounds,
    so ``p <= alpha`` has the same answer either way; only when the bounds
    straddle alpha is the MVN integrated.
    """
    if method != "normal":
        raise ValueError(f"the max-type test has only the normal method, got {method!r}")
    keep = sigma > 0.0
    if not np.any(keep):
        return float("nan"), 1.0
    D, sigma = D[:, keep], sigma[keep]
    m = float((orient * (D.T @ assignment) / sigma).max())
    # the oriented columns have the same |D|, hence the same moments
    mean, variance = null_moments(D, gamma)
    limits = (m * sigma - mean) / np.sqrt(variance)
    # clamp in tail space, where 1 - cdf has lost the digits of a tiny tail:
    # the max's tail lies between the largest column tail and their sum
    tails = ndtr(-limits)
    low, high = float(tails.max()), min(1.0, float(tails.sum()))
    if alpha is not None and not low <= alpha < high:
        return m, low if low > alpha else high
    p = 1.0 - mvn_cdf(limits, _max_corr(D, gamma), tol=tol, seed=seed)
    return m, float(np.clip(p, low, high))


def _max_diff(sample, grid, include_ppw) -> DiffMatrix:
    """``diff_matrix`` for a max-type test, warning about degenerate columns."""
    diff = diff_matrix(sample, grid, include_ppw=include_ppw)
    dropped = [lab for lab, s in zip(diff.labels, diff.sigma) if s == 0.0]
    if dropped:
        warnings.warn(
            f"dropping degenerate grid columns {dropped}",
            DegenerateColumnWarning,
            stacklevel=3,
        )
    return diff


def _test_diff(diff, assignment, gamma, direction, tol, seed,
               method="normal") -> TestResult:
    """Max-type test of a built DiffMatrix; see ``overall_test``."""
    gamma = check_gamma(gamma)
    orient = _sign("pseudo", direction)
    m, p = _max_test_from_columns(diff.D, diff.sigma, assignment, gamma, method,
                                  orient, tol=tol, seed=seed)
    return TestResult(statistic=m, null_mean=0.0, null_sd=1.0, p_value=p,
                      gamma=gamma, method=method, direction=direction,
                      tau="overall")


def overall_test(sample, grid, gamma=1.0, include_ppw=False, method="normal",
                 direction="benefit", tol=1e-4, seed=0) -> TestResult:
    """Max-type test of no effect over the whole grid.

    ``direction="benefit"`` orients every column so a treated survival
    advantage increases the max statistic; ``"harm"`` tests the reverse.
    The p-value is the normal one; ``method`` accepts only ``"normal"``
    (see ``_max_test_from_columns``), and ``seed`` and ``tol`` drive the
    QMC integration.  Columns with zero dispersion are dropped with a
    warning; when all columns are degenerate the p-value is 1.
    """
    return _test_diff(_max_diff(sample, grid, include_ppw), sample.assignment,
                      gamma, direction, tol, seed, method)


def ppw_test(sample, gamma=1.0, direction="benefit", method="normal",
             n_draws=100_000, seed=0) -> TestResult:
    """Paired Prentice-Wilcoxon test of no effect at all.

    ``direction="benefit"`` (the default) tests for a treated survival
    advantage, ``"harm"`` for the reverse.
    """
    sign = _sign("pw", direction)
    scores = pair_differences(sample, "pw")
    return _score_test(scores, sample, gamma, method, sign, "overall",
                       n_draws=n_draws, seed=seed)
