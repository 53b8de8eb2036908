"""Show that the output checks accept the reference and reject a perturbed one.

    python3 perfbench/selftest_checks.py

For every recorded value of every workload it checks that the reference
value passes, that a value moved just inside its bound passes, and that a
value moved just beyond its bound fails.  Exits 1 on the first surprise.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import DET_ATOL, DET_RTOL, check, check_value, mc_band, qmc_band  # noqa: E402
from runner import expand, load_reference  # noqa: E402


def _shift_prob(v, band, factor):
    """v moved by factor * band, away from whichever end of [0, 1] is nearer."""
    step = factor * band
    return v + step if v + step <= 1.0 else v - step


def cases(spec):
    """(value that must pass, value that must fail) pairs for one spec."""
    rule = spec[0]
    if rule == "det":
        v = spec[1]
        if v != v or abs(v) == float("inf"):
            return [(v, 0.0)]
        tol = DET_RTOL * abs(v) + DET_ATOL
        return [(v + 0.5 * tol, v + 3.0 * tol)]
    if rule == "exact":
        v = spec[1]
        wrong = {bool: lambda x: not x, int: lambda x: x + 1, str: lambda x: x + "?",
                 list: lambda x: x + [0], float: lambda x: x + 1.0}[type(v)](v)
        return [(v, wrong)]
    if rule in ("qmc", "mc"):
        band = qmc_band(spec[2]) if rule == "qmc" else mc_band(spec[1], spec[2])
        return [(_shift_prob(spec[1], band, 0.9), _shift_prob(spec[1], band, 1.1))]
    if rule == "range":
        lo, hi = spec[1], spec[2]
        step = 1 if isinstance(lo, int) else 1e-6
        return [(lo, lo - step), (hi, hi + step)]
    if rule == "any":
        return [(True, "yes"), (False, 0)]
    raise ValueError(f"unknown rule {rule!r}")


def main() -> int:
    tried = 0
    for workload in ("power_i500", "cli_analysis", "design_i1e5"):
        reference = load_reference(workload)
        for key, entry in reference.items():
            specs = {name: expand(s) for name, s in entry.items()}
            observed = {name: s[1] if len(s) > 1 else True for name, s in specs.items()}
            if check(observed, specs):
                print(f"{workload} {key}: reference values fail their own check")
                return 1
            for name, spec in specs.items():
                for good, bad in cases(spec):
                    tried += 1
                    if check_value(spec, good) is not None:
                        print(f"{workload} {key} {name}: {good!r} inside {spec} rejected")
                        return 1
                    if check_value(spec, bad) is None:
                        print(f"{workload} {key} {name}: {bad!r} beyond {spec} accepted")
                        return 1
            name = next(iter(specs))
            if not check({k: v for k, v in observed.items() if k != name}, specs):
                print(f"{workload} {key}: missing value {name} accepted")
                return 1
        print(f"{workload}: {len(reference)} ops, every value passes at its reference "
              f"and inside its bound and fails beyond it")
    print(f"{tried} perturbations checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
