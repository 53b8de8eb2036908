"""Closed testing over the analysis-time grid.

An elementary hypothesis at tau is rejected only when every intersected
max-type test whose subset contains tau rejects.  The adjusted p-value per
tau is therefore the maximum p over its 2^(L-1) supersets; family-wise
error is controlled at alpha without any shortcut assumption.  All
2^L - 1 subsets are evaluated once each, with mvn seeds derived from the
subset bitmask so evaluation order cannot change the report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


from .errors import DegenerateColumnWarning, GridTooLarge
from .overall import DiffMatrix, _max_test_from_columns, as_grid, diff_matrix
from .sensitivity import check_gamma

MAX_GRID = 14


@dataclass(frozen=True)
class ClosedTestReport:
    """Adjusted p-values and rejection decisions per analysis time."""

    taus: tuple
    adjusted_p: dict
    rejected: dict
    alpha: float
    gamma: float
    subset_p: dict

    def __post_init__(self):
        for tau in self.taus:
            if self.rejected[tau] != (self.adjusted_p[tau] <= self.alpha):
                raise ValueError("rejection flags must match adjusted p vs alpha")


def _subset_seed(seed, mask) -> int:
    return int(np.random.SeedSequence((int(seed), int(mask))).generate_state(1)[0])


def _subset_p(diff: DiffMatrix, idx, assignment, gamma, seed, tol) -> float:
    """Max-test p-value restricted to the given column indices.

    Degenerate columns are dropped; a subset left empty gets p = 1.
    Single-column subsets fall through to the exact normal tail inside the
    max-test machinery (no QMC noise).
    """
    _, p = _max_test_from_columns(diff.D[:, idx], diff.sigma[idx], assignment,
                                  gamma, "normal", orient=-1.0, tol=tol, seed=seed)
    return p


def subset_test(sample, subset, gamma=1.0, seed=0, tol=1e-4) -> float:
    """Max-type p-value for the intersection hypothesis over ``subset``."""
    gamma = check_gamma(gamma)
    grid = as_grid(np.sort(np.asarray(list(subset), dtype=float)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateColumnWarning)
        diff = diff_matrix(sample, grid)
    return _subset_p(diff, np.arange(len(grid)), sample.assignment, gamma, seed, tol)


def closed_test(sample, grid, alpha=0.05, gamma=1.0, seed=0, tol=1e-4) -> ClosedTestReport:
    """Closed testing procedure over the full grid.

    Evaluates every nonempty subset of the grid once (memoized by bitmask)
    and adjusts each tau's p-value to the maximum over its supersets.
    """
    gamma = check_gamma(gamma)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid = as_grid(grid)
    L = len(grid)
    if L > MAX_GRID:
        raise GridTooLarge(f"grid of {L} exceeds the closed-testing cap of {MAX_GRID}")
    diff = diff_matrix(sample, grid)
    if np.any(diff.sigma == 0.0):
        dropped = [float(t) for t, s in zip(grid.taus, diff.sigma) if s == 0.0]
        warnings.warn(
            f"degenerate grid columns {dropped} contribute nothing to subsets",
            DegenerateColumnWarning,
            stacklevel=2,
        )

    subset_p = {}
    for mask in range(1, 2 ** L):
        idx = np.flatnonzero([(mask >> l) & 1 for l in range(L)])
        p = _subset_p(diff, idx, sample.assignment, gamma,
                      _subset_seed(seed, mask), tol)
        subset_p[tuple(float(grid.taus[i]) for i in idx)] = p

    adjusted, rejected = {}, {}
    for l, tau in enumerate(grid.taus):
        tau = float(tau)
        sup = [p for key, p in subset_p.items() if tau in key]
        adjusted[tau] = max(sup)
        rejected[tau] = adjusted[tau] <= alpha
    return ClosedTestReport(
        taus=tuple(float(t) for t in grid.taus),
        adjusted_p=adjusted,
        rejected=rejected,
        alpha=alpha,
        gamma=gamma,
        subset_p=subset_p,
    )
