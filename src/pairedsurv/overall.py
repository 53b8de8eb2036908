"""Max-type overall test across a grid of analysis times.

The statistic is the maximum of the per-time standardized paired
statistics, and its randomization p-value comes from the multivariate
normal CDF of the columns (``sensitivity._max_test_rows`` holds that
tail, ``sensitivity.correlations`` its gamma -> correlation rule).
A standardized Prentice-Wilcoxon column can be appended so the max also
covers a whole-period comparison.  ``diff_matrix`` builds the columns of one
sample once, with its assignment and the pair sums every test reads, and
warns about the degenerate ones; ``max_test`` tests a built matrix, as
``closed_test`` and ``sensitivity_value`` do, and ``overall_test`` builds
one and tests it; ``errors.as_grid`` checks every grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateColumnWarning, as_grid, check_assignment, check_gamma,
                     check_seed, check_tol)
from .scores import _sign, pair_difference_matrix
from .sensitivity import (TestResult, _column_sums, _dropped, _max_test_rows, _normal_only,
                          _max_test_from_columns)  # noqa: F401, the benchmark recorder's import


@dataclass(frozen=True)
class DiffMatrix:
    """Per-pair score differences of one sample, one column per analysis time.

    Columns hold event-probability pseudo-differences; when present, the
    trailing PPW column is the Prentice-Wilcoxon difference negated to the
    same orientation, so every column signals a treated survival advantage
    with negative values.  ``D`` is one sample's (I, L) matrix of finite
    reals, column-major from ``diff_matrix``, so every column reduction
    reads contiguous memory; ``taus`` is a grid (``errors.as_grid``).
    ``assignment`` is the sample's +-1 treatment indicator per pair.  The
    build reduces ``D`` over its pairs once, to the ``sums`` every test of
    the matrix reads (``sensitivity._column_sums``: ``sum d V``, ``sum |d|``
    and ``sum d^2`` per column), whence ``sigma = sqrt(sum d^2)`` and
    ``dropped``, the columns every max-type test of it leaves out, found
    once (``_dropped``: zero dispersion or a copy of an earlier column).
    """

    taus: np.ndarray
    D: np.ndarray
    assignment: np.ndarray
    sums: tuple = field(init=False)
    sigma: np.ndarray = field(init=False)
    dropped: np.ndarray = field(init=False)

    def __post_init__(self):
        taus, D = as_grid(self.taus), np.asarray(self.D)
        shape, pairs = D.shape, np.shape(self.assignment)
        if not (len(shape) == 2 and shape[1] - len(taus) in (0, 1) and pairs == shape[:1]):
            raise ValueError(f"D needs one column per tau and at most one PPW column, and "
                             f"assignment one entry per row of D; got {len(taus)} taus, "
                             f"D of shape {shape} and assignment of shape {pairs}")
        # checked in place: a copy of D would double a large matrix's memory
        if D.dtype.kind not in "iuf" or not np.isfinite(D).all():
            raise ValueError("D must hold real, finite numbers")
        check_assignment(self.assignment)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "sums", _column_sums(D, self.assignment))
        object.__setattr__(self, "sigma", np.sqrt(self.sums[2]))
        object.__setattr__(self, "dropped", _dropped(D, self.sigma, self.sums[0]))

    @property
    def has_ppw(self) -> bool:
        return self.D.shape[1] > len(self.taus)

    @property
    def labels(self) -> list:
        return self.taus.tolist() + ["ppw"] * self.has_ppw


def diff_matrix(sample, grid, include_ppw=False) -> DiffMatrix:
    """Score-difference columns for every grid time (plus optional PPW).

    One call to ``scores.pair_difference_matrix``, which sorts the pooled
    units once per grid; ``pair_differences(sample, "pseudo", tau)`` is the
    column of the one-time grid ``[tau]``, and the PPW column is
    ``-pair_differences(sample, "pw")``.  A column with zero dispersion (a
    grid time before any event) or copying an earlier one (no event between)
    carries no information; the max-type tests drop it (``_dropped``), and
    one ``DegenerateColumnWarning`` names all such columns here.
    """
    taus = as_grid(grid)
    diff = DiffMatrix(taus, pair_difference_matrix(sample, taus, include_pw=include_ppw),
                      sample.assignment)
    _warn_degenerate([lab for lab, d in zip(diff.labels, diff.dropped) if d])
    return diff


def _warn_degenerate(dropped, sample=""):
    """One ``DegenerateColumnWarning`` for the ``dropped`` labels, if any,
    naming ``sample`` (the studies name their scenario and replications),
    at the caller of the function that calls this one."""
    if dropped:
        warnings.warn(f"{sample}dropping degenerate grid columns {dropped}",
                      DegenerateColumnWarning, stacklevel=3)


def max_test(diff, gamma=1.0, direction="benefit", tol=1e-4, seed=0) -> TestResult:
    """Max-type test of no effect over the columns of a built ``DiffMatrix``.

    ``direction="benefit"`` orients every column so a treated survival
    advantage increases the max statistic; ``"harm"`` tests the reverse.
    The p-value is the normal one, and ``seed`` (a whole number >= 0) and
    ``tol`` drive the QMC integration.  It lies between the largest column
    tail and the sum of the column tails, and within those between the
    second-order bounds from the bivariate tails of each pair of columns
    (Hunter's above; Dawson-Sankoff's or de Caen's below).  Where bounds
    meet they decide it without integrating: one column gives the p of
    ``score_test(sample, "pseudo", tau)`` bit for bit by construction (both
    take the one normal tail, ``sensitivity._normal_tails``), and two give
    the exact ``p_1 + p_2 - p_12`` from Owen's T.  Columns with zero
    dispersion or copying an earlier one are dropped; when every column
    has zero dispersion the p-value is 1.  It is 0.0 when every column's
    normal tail underflows: ``ndtr`` returns 0 from a standardized limit of
    about 37.7 on.  Beyond about 38.6, 0.0 is the nearest double both to
    that tail and to Hoeffding's bound ``L exp(-z^2 / 2)`` on the
    randomization tail of the max.
    """
    gamma, tol, seed = check_gamma(gamma), check_tol(tol, "tol"), check_seed(seed)
    orient = _sign("pseudo", direction)
    m, p = _max_test_rows(diff.D, ~diff.dropped[None], diff.sums, gamma, orient, tol, [seed])
    return TestResult(statistic=float(m[0]), null_mean=0.0, null_sd=1.0, p_value=float(p[0]),
                      gamma=gamma, method="normal", direction=direction,
                      tau="overall")


def overall_test(sample, grid, gamma=1.0, include_ppw=False, method="normal",
                 direction="benefit", tol=1e-4, seed=0) -> TestResult:
    """``max_test`` of ``diff_matrix(sample, grid, include_ppw)``.

    ``method`` accepts only ``"normal"``, the one method of the max test.
    """
    _normal_only(method)
    check_gamma(gamma)
    check_tol(tol, "tol")
    check_seed(seed)
    return max_test(diff_matrix(sample, grid, include_ppw), gamma, direction, tol, seed)
