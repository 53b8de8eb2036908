"""Design sensitivities: the asymptotic robustness limits of the tests.

In a favorable situation (a real effect, no hidden bias) the power of a
sensitivity analysis tends to 1 below a threshold gamma and to 0 above it.
For the time-specific statistic that threshold is

    (E|d| + E(dV)) / (E|d| - E(dV)),

and for the max statistic the same ratio built from the per-column maxima
of E|d|/sqrt(E d^2) and E(dV)/sqrt(E d^2), each maximum taken on its own.
The expectations are estimated by plain sample moments from one large
simulated sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensitivity import _column_sums


def _threshold(a, b):
    """(a + b) / (a - b), and +inf where a <= b."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a - b > 0.0, (a + b) / (a - b), np.inf)


def design_sensitivities(D, assignment):
    """Per-column and max-type design sensitivities of an (I, L) matrix.

    ``D`` holds benefit-oriented pair differences and ``assignment`` the
    treated-side signs V, one per pair.  Returns ``(per_column, overall)``:
    an array with +inf where every informative pair favors treatment,
    values below 1 where the effect is adverse, and nan for a column whose
    mean-square difference is 0; ``overall`` uses the other columns and is
    nan when none is left.
    """
    D = np.asarray(D, dtype=float)
    v = np.asarray(assignment, dtype=float).reshape(-1)
    if v.shape[0] != D.shape[0]:
        raise ValueError("assignment length must match the number of pairs")
    e_dv, e_abs, e_sq = (s / len(v) for s in _column_sums(D, v))  # sample means
    live = e_sq > 0.0
    per_column = np.where(live, _threshold(e_abs, e_dv), np.nan)
    if not np.any(live):
        return per_column, math.nan
    root = np.sqrt(e_sq[live])
    overall = _threshold((e_abs[live] / root).max(), (e_dv[live] / root).max())
    return per_column, float(overall)


@dataclass(frozen=True)
class DesignSensitivityResult:
    """Per-time and overall design sensitivities from one large sample."""

    per_tau: dict
    overall: float
    sample_size: int
    scenario: object
