"""Output checks: compare an op's normalised values with its reference spec.

A reference spec is a JSON list whose first item names the rule:

``["det", v]``        deterministic float, equal to ``v`` within 1e-9 relative
``["exact", v]``      int, bool, str or list, equal to ``v``
``["qmc", v, tol]``   QMC p-value, within ``QMC_K * tol`` of ``v``
``["mc", v, n]``      Monte Carlo p-value from ``n`` draws, within ``MC_Z``
                      standard errors of the difference of two estimates
``["range", lo, hi]`` value inside ``[lo, hi]`` (rejection counts and
                      bisection results that sit on a QMC p-value)
``["any"]``           a bool whose reference sits within the QMC band of its
                      threshold, so either value is right
"""

from __future__ import annotations

import math

DET_RTOL = 1e-9
DET_ATOL = 1e-12  # floor for values whose reference is exactly 0
QMC_K = 3.0
MC_Z = 5.0


def qmc_band(tol: float) -> float:
    return QMC_K * tol


def mc_band(p: float, n: int) -> float:
    var = max(p * (1.0 - p), 1.0 / n)
    return MC_Z * math.sqrt(2.0 * var / n)


def _close(x, v) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    if math.isinf(v) or math.isinf(x):
        return x == v
    if math.isnan(v) or math.isnan(x):
        return math.isnan(v) and math.isnan(x)
    return abs(x - v) <= DET_RTOL * max(abs(x), abs(v)) + DET_ATOL


def _is_prob(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and 0.0 <= x <= 1.0


def check_value(spec, x) -> str | None:
    """None when ``x`` satisfies ``spec``, else a one-line reason."""
    rule = spec[0]
    if rule == "det":
        ok = _close(x, spec[1])
    elif rule == "exact":
        ok = type(x) is type(spec[1]) and x == spec[1]
    elif rule == "qmc":
        ok = _is_prob(x) and abs(x - spec[1]) <= qmc_band(spec[2])
    elif rule == "mc":
        ok = _is_prob(x) and abs(x - spec[1]) <= mc_band(spec[1], spec[2])
    elif rule == "range":
        ok = (isinstance(x, (int, float)) and not isinstance(x, bool)
              and spec[1] <= x <= spec[2])
    elif rule == "any":
        ok = isinstance(x, bool)
    else:
        return f"unknown rule {rule!r}"
    return None if ok else f"got {x!r}, want {spec!r}"


def check(observed: dict, expected: dict) -> list:
    """Every mismatch between an op's values and its reference, as strings."""
    errors = [f"{name}: missing" for name in expected if name not in observed]
    errors += [f"{name}: unexpected" for name in observed if name not in expected]
    for name, spec in expected.items():
        if name in observed:
            reason = check_value(spec, observed[name])
            if reason:
                errors.append(f"{name}: {reason}")
    return errors
