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
power study, the grid sensitivity search) takes the decision from those
bounds when one of them decides; when they straddle alpha it integrates
only until the QMC error bar puts the estimate on one side of alpha, so
its decision can differ from the fully integrated p's only when p lies
within a few error estimates of alpha.  ``diff_matrix`` builds the
columns once and warns about the degenerate ones; ``max_test`` tests a
built matrix, ``overall_test`` builds one and tests it, and
``correlations`` holds the gamma -> correlation rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateColumnWarning
from .mvnorm import _check_dim, mvn_cdf
from .scores import _sign, pair_difference_matrix
from .sensitivity import TestResult, check_gamma, null_moments


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
    with negative values.  ``D`` is column-major, so every column
    reduction reads contiguous memory.  ``sigma[l] = sqrt(sum_i D[i, l]^2)``
    is computed from ``D`` when the matrix is built.
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

    One call to ``scores.pair_difference_matrix``, which sorts the pooled
    units once per grid.  Column l equals
    ``pair_differences(sample, "pseudo", grid[l])`` bit for bit, and the PPW
    column ``-pair_differences(sample, "pw")``.  A column with zero
    dispersion (a grid time before any event) carries no information; the
    max-type tests drop it, and a ``DegenerateColumnWarning`` names it here.
    """
    taus = as_grid(grid)
    diff = DiffMatrix(taus, pair_difference_matrix(sample, taus, include_pw=include_ppw))
    dropped = [lab for lab, s in zip(diff.labels, diff.sigma) if s == 0.0]
    if dropped:
        warnings.warn(f"dropping degenerate grid columns {dropped}",
                      DegenerateColumnWarning, stacklevel=2)
    return diff


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


def _max_test_from_columns(D, sigma, assignment, gamma, method, orient,
                           tol=1e-4, seed=0, alpha=None):
    """p-value machinery for the max statistic on already-built columns.

    ``orient`` is +1 to test the upper tail of the stored columns and -1
    for the lower tail (the benefit direction of pseudo columns).  Columns
    with zero dispersion are dropped; with none left the result is
    (nan, 1), and more than ``mvnorm.MAX_DIM`` left is refused before any
    bound decides.  ``gamma`` must already be checked.  Returns (m, p).
    ``method`` accepts only ``"normal"``, the one method of the max test;
    it stays a parameter because the benchmark's reference recorder passes
    it.

    With ``alpha`` the returned p only decides ``p <= alpha``: when the
    largest column tail exceeds alpha, or the capped sum of the column
    tails is at most alpha, that bound is returned without integrating.
    Only when the bounds straddle alpha is the MVN integrated, and then
    only until its estimate lies more than two error estimates from alpha
    (``mvn_cdf`` with ``level = 1 - alpha``); the estimate is
    clipped into the same bounds, which keeps its side of alpha.  Without
    ``alpha`` the MVN is integrated to ``tol``.
    """
    _normal_only(method)
    keep = sigma > 0.0
    if not np.any(keep):
        return float("nan"), 1.0
    if not keep.all():
        D, sigma = D[:, keep], sigma[keep]
    _check_dim(D.shape[1])
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
    cdf = mvn_cdf(limits, correlations(D, gamma), tol=tol, seed=seed,
                  level=None if alpha is None else 1.0 - alpha)
    return m, float(np.clip(1.0 - cdf, low, high))


def max_test(diff, assignment, gamma=1.0, direction="benefit", tol=1e-4,
             seed=0) -> TestResult:
    """Max-type test of no effect over the columns of a built ``DiffMatrix``.

    ``direction="benefit"`` orients every column so a treated survival
    advantage increases the max statistic; ``"harm"`` tests the reverse.
    The p-value is the normal one, and ``seed`` and ``tol`` drive the QMC
    integration.  Columns with zero dispersion are dropped; when all
    columns are degenerate the p-value is 1.
    """
    gamma = check_gamma(gamma)
    orient = _sign("pseudo", direction)
    m, p = _max_test_from_columns(diff.D, diff.sigma, assignment, gamma, "normal",
                                  orient, tol=tol, seed=seed)
    return TestResult(statistic=m, null_mean=0.0, null_sd=1.0, p_value=p,
                      gamma=gamma, method="normal", direction=direction,
                      tau="overall")


def overall_test(sample, grid, gamma=1.0, include_ppw=False, method="normal",
                 direction="benefit", tol=1e-4, seed=0) -> TestResult:
    """``max_test`` of ``diff_matrix(sample, grid, include_ppw)``.

    ``method`` accepts only ``"normal"`` (see ``_max_test_from_columns``).
    """
    _normal_only(method)
    return max_test(diff_matrix(sample, grid, include_ppw), sample.assignment,
                    gamma, direction, tol, seed)
