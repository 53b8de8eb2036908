"""The benchmark's three workloads: seeded fixtures, timed ops, output values.

Every op calls the library through module attributes at call time, so the
traced run's wrappers see the calls.  Inputs come from the workload seed
only.  Each workload draws them from a fixed pool of inputs (seed + op
index for power_i500, seed + cycle for cli_analysis, the seed for
design_i1e5, each taken modulo the pool size) because the output checks
compare against references recorded for every input in the pool.

Why each workload:

* ``power_i500``: the methodologist's path, many small samples; per-sample
  fixed cost (scores, km, MVN) dominates.  Closed testing never runs.
* ``cli_analysis``: the analyst's interactive path through the CLI on
  I=300 files; the only workload with closed testing, sensitivity
  bisection, Monte Carlo tails and CSV loading.  No simulation is timed.
* ``design_i1e5``: one large working set (2 x 10^5 units), dominated by
  the O(n log n) pseudo-observation kernel and ``event_table``; MVN is
  negligible here.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
from pathlib import Path
from typing import Callable

import pairedsurv
import pairedsurv.cli

WORKLOADS = ("power_i500", "cli_analysis", "design_i1e5")
FIXTURE_SALT = 20260808
POOL = {"power_i500": 256, "cli_analysis": 16, "design_i1e5": 16}

POWER_PAIRS = 500
POWER_REPLICATIONS = 4
POWER_GAMMAS = (1.0, 1.25)
CLI_PAIRS = 300
CLI_COMMANDS = (
    ("test_g1", ["test", "--tau", "3"]),
    ("test_g1.25", ["test", "--tau", "3", "--gamma", "1.25"]),
    ("test_mc", ["test", "--tau", "3", "--method", "montecarlo"]),
    ("overall_g1", ["overall", "--grid", "1,2,3,4,5", "--include-ppw"]),
    ("overall_g1.25", ["overall", "--grid", "1,2,3,4,5", "--include-ppw",
                       "--gamma", "1.25"]),
    ("sens_tau", ["sens", "--tau", "3", "--search"]),
    ("sens_grid", ["sens", "--grid", "1,2,3,4,5", "--include-ppw", "--search"]),
    ("closed_g1", ["closed", "--grid", "0.5,1,2,3,4,5"]),
    ("closed_g1.2", ["closed", "--grid", "0.5,1,2,3,4,5", "--gamma", "1.2"]),
    ("km", ["km"]),
)
DESIGN_GAMMAS = (1.0, 1.25)


@dataclasses.dataclass(frozen=True)
class Op:
    key: str  # reference entry for this op's output
    run: Callable  # the timed call; returns the raw output
    values: Callable  # raw output -> {name: value}, outside the timed region


def _config(name):
    path = Path(pairedsurv.__file__).parent / "configs" / name
    return pairedsurv.StudyConfig.from_json(path)


# -- power_i500 -----------------------------------------------------------

def power_ops(seed, n_ops, workdir):
    base = _config("table1.cfg")
    ops = []
    for k in range(n_ops):
        master = (seed + k) % POOL["power_i500"]
        config = dataclasses.replace(base, pairs=POWER_PAIRS,
                                     replications=POWER_REPLICATIONS,
                                     seed=master, gammas=POWER_GAMMAS)
        ops.append(Op(str(master), functools.partial(_power_run, config),
                      power_values))
    return ops


def _power_run(config):
    return pairedsurv.power_study(config)


def power_values(result) -> dict:
    out = {f"{r.scenario}/{r.gamma:g}/{r.test}": int(r.rejections) for r in result.rows}
    reps = {int(r.replications) for r in result.rows}
    out["replications"] = reps.pop() if len(reps) == 1 else -1
    return out


# -- cli_analysis ---------------------------------------------------------

def cli_ops(seed, n_ops, workdir):
    """Whole cycles of the ten commands over five fixtures, new fixtures per cycle.

    Cycle c uses pooled input (seed + c) % pool, so a run averages its
    timings over several samples of each scenario.
    """
    ops = []
    scenarios = _config("table1.cfg").scenarios
    for cycle in range(max(1, n_ops // (len(scenarios) * len(CLI_COMMANDS)))):
        p = (seed + cycle) % POOL["cli_analysis"]
        for code, spec in enumerate(scenarios):
            sample = pairedsurv.generate_pairs(CLI_PAIRS, spec, [FIXTURE_SALT, p, code])
            stem = Path(workdir) / f"{p}_{spec.id}"
            data = stem.with_suffix(".csv")
            pairedsurv.write_csv(data, sample)
            for name, args in CLI_COMMANDS:
                out = Path(f"{stem}_{name}.{'csv' if name == 'km' else 'json'}")
                argv = [args[0], str(data), *args[1:], "--out", str(out)]
                ops.append(Op(f"{p}/{spec.id}/{name}", functools.partial(_cli_run, argv),
                              functools.partial(cli_values, out)))
    return ops


def _cli_run(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return pairedsurv.cli.main(argv)


def cli_values(out_path, code) -> dict:
    values = {"exit_code": code}
    if code != 0:
        return values
    if out_path.suffix == ".csv":
        values.update(_km_values(out_path))
        return values
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)["result"]
    if "sensitivity_value" in result:
        values["table"] = result["table"]
        for k, v in result["sensitivity_value"].items():
            values[f"sensitivity_value/{k}"] = v
    elif "adjusted_p" in result:
        values["taus"] = result["taus"]
        values["alpha"] = result["alpha"]
        values["gamma"] = result["gamma"]
        for tau, p in result["adjusted_p"].items():
            values[f"adjusted_p/{tau}"] = p
            values[f"rejected/{tau}"] = result["rejected"][tau]
    else:
        values.update(result)
    return values


def _km_values(path) -> dict:
    """Order-sensitive digests of each exported curve, plus shape checks."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    out = {"header": rows[0]}
    for group in ("treated", "control"):
        pts = [(float(t), float(s)) for g, t, s in rows[1:] if g == group]
        times = [t for t, _ in pts]
        surv = [s for _, s in pts]
        out[f"{group}/points"] = len(pts)
        out[f"{group}/sorted"] = times == sorted(times) and all(
            0.0 <= b <= a <= 1.0 for a, b in zip(surv, surv[1:]))
        out[f"{group}/sum_time"] = math.fsum(times)
        out[f"{group}/sum_survival"] = math.fsum(surv)
        out[f"{group}/weighted_survival"] = math.fsum(
            (k + 1) * s for k, s in enumerate(surv))
    return out


# -- design_i1e5 ----------------------------------------------------------

def design_ops(seed, n_ops, workdir):
    p = seed % POOL["design_i1e5"]
    base = _config("table2.cfg")
    ops = []
    for code, spec in enumerate(base.scenarios):
        sample = pairedsurv.generate_pairs(base.pairs, spec, [FIXTURE_SALT, p, code])
        study = dataclasses.replace(base, scenarios=(spec,), seed=p)
        ops.append(Op(f"{p}/{spec.id}",
                      functools.partial(_design_run, study, sample), design_values))
    return ops


def _design_run(study, sample):
    sens = pairedsurv.design_sensitivity_study(study)
    tests = [pairedsurv.overall_test(sample, study.grid, gamma=g, include_ppw=True)
             for g in DESIGN_GAMMAS]
    return sens, tests


def design_values(raw) -> dict:
    (sens,), tests = raw
    out = {f"per_tau/{tau:g}": float(v) for tau, v in sens.per_tau.items()}
    out["overall"] = float(sens.overall)
    out["sample_size"] = int(sens.sample_size)
    for res in tests:
        out[f"overall_test/{res.gamma:g}/statistic"] = float(res.statistic)
        out[f"overall_test/{res.gamma:g}/p_value"] = float(res.p_value)
    return out


MAKE_OPS = {"power_i500": power_ops, "cli_analysis": cli_ops,
            "design_i1e5": design_ops}


def build(workload: str, seed: int, n_ops: int, workdir) -> list:
    """Make the fixtures and return the ops; the run repeats them up to ``n_ops``."""
    return MAKE_OPS[workload](seed, n_ops, workdir)
