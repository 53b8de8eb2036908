"""Record the reference outputs that the benchmark's output checks use.

Run from the repository root, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_reference.py [--workload NAME]

It runs every op of every pooled input once and writes
``perfbench/reference/<workload>.json``: ``{"pool": P, "ops": {key: {name:
spec}}}``, or ``{"pool": P, "names": [...], "ops": {key: [spec, ...]}}``
when every op has the same value names.  A spec is a bare value (a float is compared to 1e-9 relative,
anything else exactly) or a rule list from ``checks.py``.

Values that sit on a random computation get bands instead of exact values:

* Monte Carlo p-values: binomial standard error (``checks.mc_band``).
* QMC p-values (max-type, closed adjusted): ``checks.qmc_band`` of the
  integration tolerance.
* Max-type rejection counts in the power study: the recorder replays each
  replication with the library's own replication seeds and max-test
  routine, and allows every count between "p <= alpha - band" and
  "p <= alpha + band".  These replays use library internals, so this
  script is only expected to run at the reference commit.
* Sensitivity values found by bisecting a QMC p-value: the gamma interval
  around the reference where the p-value stays within the band of alpha,
  widened by the bisection tolerance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pairedsurv  # noqa: E402
from pairedsurv.overall import _max_test_from_columns, as_grid, diff_matrix  # noqa: E402
from pairedsurv.simulate import _rep_seed  # noqa: E402

import workloads as wl  # noqa: E402
from checks import qmc_band  # noqa: E402

# CLI and overall_test defaults the commands rely on.
CLI_TOL = 1e-4
CLI_DRAWS = 100_000
ALPHA = 0.05
SENS_TOL = 1e-3
GAMMA_MAX = 10.0
SCAN_STEPS = 400


def _plain(value):
    """Bare value for floats (det) and scalars (exact); lists need a rule."""
    if isinstance(value, list):
        return ["exact", value]
    return value


# -- power_i500 -----------------------------------------------------------

def _max_p_values(config):
    """Per-replication max-type p-values, replayed as power_study computes them."""
    grid = as_grid(config.grid)
    out = {}
    for spec in config.scenarios:
        for rep in range(config.replications):
            sample = pairedsurv.generate_pairs(
                config.pairs, spec, _rep_seed(config.seed, spec.id, rep))
            diff = diff_matrix(sample, grid)
            keep = diff.sigma > 0.0
            mvn_seed = int(_rep_seed(config.seed, spec.id, rep, salt=7).generate_state(1)[0])
            for gamma in config.gammas:
                p = 1.0
                if np.any(keep):
                    _, p = _max_test_from_columns(
                        diff.D[:, keep], diff.sigma[keep], sample.assignment,
                        gamma, "normal", orient=-1.0, tol=config.mvn_tol,
                        seed=mvn_seed)
                out.setdefault(f"{spec.id}/{gamma:g}/max", []).append(p)
    return out


def record_power(workdir):
    ops = wl.power_ops(0, wl.POOL["power_i500"], workdir)
    table = {}
    for op in ops:
        config = op.run.args[0]
        values = op.values(op.run())
        replay = _max_p_values(config)
        band = qmc_band(config.mvn_tol)
        entry = {}
        for name, v in values.items():
            if name.endswith("/max"):
                ps = np.array(replay[name])
                lo = int(np.sum(ps <= config.alpha - band))
                hi = int(np.sum(ps <= config.alpha + band))
                if int(np.sum(ps <= config.alpha)) != v:
                    raise RuntimeError(f"replay disagrees with power_study at {op.key}/{name}")
                entry[name] = ["range", lo, hi] if lo != hi else v
            else:
                entry[name] = v
        table[op.key] = entry
    return table


# -- cli_analysis ---------------------------------------------------------

def _sens_grid_specs(data, values):
    """Bands for a sensitivity value bisected on the QMC max-type p-value."""
    sample = pairedsurv.load_csv(data)
    grid = tuple(float(t) for t in dict(wl.CLI_COMMANDS)["sens_grid"][2].split(","))
    band = qmc_band(CLI_TOL)

    def p(g):
        return pairedsurv.overall_test(sample, grid, gamma=g, include_ppw=True,
                                       method="normal", seed=0).p_value

    def edge(start, step, inside):
        g = start
        for _ in range(SCAN_STEPS):
            nxt = min(GAMMA_MAX, max(1.0, g + step))
            if nxt == g or not inside(p(nxt)):
                return nxt
            g = nxt
        return 1.0 if step < 0 else GAMMA_MAX

    g_ref = values["sensitivity_value/gamma"]
    flags_loose = abs(p(1.0) - ALPHA) <= band or abs(p(GAMMA_MAX) - ALPHA) <= band
    lo = edge(g_ref, -SENS_TOL / 2, lambda v: v >= ALPHA - band)
    hi = edge(g_ref, SENS_TOL / 2, lambda v: v <= ALPHA + band)
    specs = {"sensitivity_value/gamma": ["range", max(1.0, lo - SENS_TOL),
                                         min(GAMMA_MAX, hi + SENS_TOL)]}
    for flag in ("already_sensitive", "exceeded_max"):
        name = f"sensitivity_value/{flag}"
        specs[name] = ["any"] if flags_loose else values[name]
    return specs


def _cli_spec(command, name, value, values):
    if command == "test_mc" and name == "p_value":
        return ["mc", value, CLI_DRAWS]
    if command.startswith("overall") and name == "p_value":
        return ["qmc", value, CLI_TOL]
    if name.startswith("adjusted_p/"):
        return ["qmc", value, CLI_TOL]
    if name.startswith("rejected/"):
        p = values["adjusted_p/" + name.split("/", 1)[1]]
        return ["any"] if abs(p - values["alpha"]) <= qmc_band(CLI_TOL) else value
    return _plain(value)


def record_cli(workdir):
    table = {}
    for p in range(wl.POOL["cli_analysis"]):
        for op in wl.cli_ops(p, 1, workdir):
            code = op.run()
            values = op.values(code)
            if code != 0:
                raise RuntimeError(f"{op.key} exited with {code}")
            command = op.key.rsplit("/", 1)[1]
            entry = {name: _cli_spec(command, name, v, values) for name, v in values.items()}
            if command == "sens_grid":
                data = Path(op.run.args[0][1])
                entry.update(_sens_grid_specs(data, values))
            table[op.key] = entry
        print(f"cli_analysis: input {p} recorded", flush=True)
    return table


# -- design_i1e5 ----------------------------------------------------------

def record_design(workdir):
    table = {}
    for p in range(wl.POOL["design_i1e5"]):
        for op in wl.design_ops(p, 0, workdir):
            values = op.values(op.run())
            table[op.key] = {
                name: ["qmc", v, CLI_TOL] if name.endswith("/p_value") else _plain(v)
                for name, v in values.items()
            }
        print(f"design_i1e5: input {p} recorded", flush=True)
    return table


RECORDERS = {"power_i500": record_power, "cli_analysis": record_cli,
             "design_i1e5": record_design}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    for name in args.workload or wl.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="record-", dir=out_root)
        try:
            table = RECORDERS[name](workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc = {"pool": wl.POOL[name], "ops": table}
        names = sorted(next(iter(table.values())))
        if all(sorted(entry) == names for entry in table.values()):
            # Same value names for every op: store them once.
            doc["names"] = names
            doc["ops"] = {key: [entry[n] for n in names] for key, entry in table.items()}
        with open(HERE / "reference" / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(table)} ops recorded", flush=True)


if __name__ == "__main__":
    main()
