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


@dataclass(frozen=True)
class MomentEstimates:
    """Per-column sample moments of the pair differences."""

    e_abs: np.ndarray
    e_dv: np.ndarray
    e_sq: np.ndarray

    def __post_init__(self):
        if np.any(self.e_abs + 1e-12 < np.abs(self.e_dv)) or np.any(self.e_sq < 0):
            raise ValueError("moments must satisfy e_abs >= |e_dv| and e_sq >= 0")


def estimate_moments(D, assignment) -> MomentEstimates:
    """Columnwise means of |d|, d*V and d^2 of an (I, L) matrix.

    ``assignment`` holds the treated-side signs V, one per pair.
    """
    D = np.asarray(D, dtype=float)
    v = np.asarray(assignment, dtype=float).reshape(-1)
    if v.shape[0] != D.shape[0]:
        raise ValueError("assignment length must match the number of pairs")
    return MomentEstimates(
        e_abs=np.abs(D).mean(axis=0),
        e_dv=(D * v[:, None]).mean(axis=0),
        e_sq=(D ** 2).mean(axis=0),
    )


def design_sensitivity_time(moments: MomentEstimates, column: int = 0) -> float:
    """Robustness threshold of the time-specific test at one column.

    Returns +inf when every informative pair favors treatment, and values
    below 1 when the effect at that time is adverse.
    """
    e_abs = float(moments.e_abs[column])
    e_dv = float(moments.e_dv[column])
    if e_abs == 0.0:
        raise ValueError("all pair differences vanish at this column")
    denom = e_abs - e_dv
    if denom <= 0.0:
        return math.inf
    return (e_abs + e_dv) / denom


def design_sensitivity_overall(moments: MomentEstimates) -> float:
    """Robustness threshold of the max-type overall test.

    Uses the two per-column maxima of the normalized moments, taken
    independently.
    """
    if np.any(moments.e_sq == 0.0):
        raise ValueError("every column needs positive mean-square difference")
    root = np.sqrt(moments.e_sq)
    a_max = float((moments.e_abs / root).max())
    b_max = float((moments.e_dv / root).max())
    denom = a_max - b_max
    if denom <= 0.0:
        return math.inf
    return (a_max + b_max) / denom


@dataclass(frozen=True)
class DesignSensitivityResult:
    """Per-time and overall design sensitivities from one large sample."""

    per_tau: dict
    overall: float
    sample_size: int
    scenario: object
