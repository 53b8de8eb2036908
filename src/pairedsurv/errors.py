"""Input rules and warning categories: the library's refusal policy.

Bad input raises a plain ``ValueError`` with a message.  Each rule for a
value a caller chooses is written once, here, and other modules import the
rules they run.  Every real-valued rule runs ``_check_real`` (``check_reals``
for an array), which refuses bools, strings and numbers too large for a
float.  The two warnings are classes of their own because callers select
them by category: the CLI turns ``AccuracyNotReached`` into exit code 3,
and ``DegenerateColumnWarning`` can be filtered on its own.
"""

from __future__ import annotations

import math
import numbers
from functools import partial
from itertools import filterfalse

import numpy as np


class AccuracyNotReached(UserWarning):
    """QMC integration stopped before its error estimate met the tolerance."""


class DegenerateColumnWarning(UserWarning):
    """A degenerate grid column, one with zero dispersion (a grid time before
    any event) or equal to an earlier column (no event between), was
    dropped from a max-type statistic."""


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(value, within, rule) -> float:
    """``value`` as a float: a real number, not a bool, for which ``within``
    holds; else a ``ValueError`` saying ``rule``."""
    try:
        if _is_real(value) and within(value := float(value)):
            return value
    except OverflowError:  # a number too large for a float
        pass
    raise ValueError(f"{rule}, got {value!r}")


def check_reals(values, rule) -> np.ndarray:
    """``values`` as a float array of their shape, every entry a real number
    ``_check_real`` takes; else a ``ValueError`` saying ``rule``.  A list is
    read entry by entry: numpy would turn ``[True, 2.0]`` into floats."""
    if not isinstance(values, (list, tuple)) and np.asarray(values).dtype.kind in "iuf":
        return np.array(values, dtype=float)  # no bool, string or object in it
    entries = np.asarray(values, dtype=object)
    try:
        return check_each_real(entries.flat, rule).reshape(entries.shape)
    except ValueError:
        raise ValueError(f"{rule}, got {values!r}") from None


def check_each_real(values, rule) -> np.ndarray:
    """``values`` as a float vector, every entry a real number ``_check_real``
    takes; else a ``ValueError`` saying ``rule`` about the first it refuses."""
    return np.array([_check_real(v, lambda v: True, rule) for v in values], dtype=float)


def _each(values, ok, rule) -> list:
    """``values`` as a list, if ``ok`` holds for every entry; else a
    ``ValueError`` saying ``rule`` about the first entry it refuses."""
    values = list(values)
    for value in filterfalse(ok, values):
        raise ValueError(f"{rule}, got {value!r}")
    return values


def check_positions(positions) -> np.ndarray:
    """Positions within a pair as int64, every entry an integer 1 or 2, not a bool."""
    return np.array(_each(positions, lambda p: _is_real(p) and isinstance(p, numbers.Integral)
                          and p in (1, 2), "position must be 1 or 2"), dtype=np.int64)


def check_flags(flags, name) -> np.ndarray:
    """0/1 flags as bools, every entry a bool or a real number equal to 0 or 1."""
    return np.array(_each(flags, lambda f: (isinstance(f, (bool, np.bool_)) or _is_real(f))
                          and f in (0, 1), f"{name} must be 0 or 1"), dtype=bool)


def check_tol(value, name) -> float:
    return _check_real(value, lambda v: 0.0 < v < math.inf, f"{name} must be > 0 and finite")


def check_gamma(gamma) -> float:
    return _check_real(gamma, lambda g: 1.0 <= g < math.inf, "gamma must be a finite real >= 1")


def check_alpha(alpha) -> float:
    return _check_real(alpha, lambda a: 0.0 < a < 1.0, "alpha must lie in (0, 1)")


def check_tau(tau) -> float:
    return _check_real(tau, lambda t: t >= 0.0, "tau must be >= 0")


def check_whole(value, least, name) -> int:
    """``value`` as an int: a number (not a bool), whole and >= ``least``.
    An integer is taken exactly, however large; any other number must pass
    ``_check_real`` as a whole float."""
    rule = f"{name} must be a whole number >= {least}"
    if not (_is_real(value) and isinstance(value, numbers.Integral)):
        _check_real(value, float.is_integer, rule)
    if value >= least:
        return int(value)
    raise ValueError(f"{rule}, got {value!r}")


# the rules of a draw count and of a whole-number seed (every QMC seed a test,
# a search or a study takes)
check_draws = partial(check_whole, least=1, name="n_draws")
check_seed = partial(check_whole, least=0, name="seed")


def check_assignment(assignment) -> np.ndarray:
    """Treated-side signs as int64, every entry a real +1 or -1 (no bool)."""
    signs = np.asarray(assignment)
    if signs.dtype.kind not in "iuf" or not np.isin(signs, (1, -1)).all():
        raise ValueError("assignment entries must be +1 or -1")
    return signs.astype(np.int64, copy=False)


def as_grid(grid) -> np.ndarray:
    """Validated grid: strictly increasing positive real analysis times."""
    taus = check_reals(grid, "grid times must be real numbers").reshape(-1)
    if taus.size < 1:
        raise ValueError("a time grid needs at least one tau")
    if not np.all(taus > 0) or np.any(np.diff(taus) <= 0):
        raise ValueError("grid times must be positive and strictly increasing")
    return taus


def check_times(times) -> np.ndarray:
    """Observed times as a float array of their shape, every one finite and >= 0."""
    t = np.asarray(times, dtype=float)
    if t.size and not (t.min() >= 0.0 and t.max() < np.inf):  # NaN fails too
        raise ValueError("times must be finite and >= 0")
    return t
