"""Command-line interface over the library.

Subcommands: ``test`` (time-specific), ``overall`` (max-type), ``sens``
(sensitivity tables / sensitivity value), ``closed`` (closed testing),
``simulate`` / ``design-sens`` (study drivers from a JSON config), and
``km`` (plot-ready survival-curve export).  Every command prints a human
table and can write a machine-readable JSON document embedding its run
manifest.  Exit codes: 0 success, 2 input error, 3 numeric failure,
4 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .closed import closed_test
from .data import load_csv
from .errors import AccuracyNotReached, PairedSurvError
from .km import km_estimate
from .overall import _max_diff, _test_diff, correlations
from .scores import benefit_tail, pair_differences
from .sensitivity import _score_test, _search, _worst_case_p
from .simulate import StudyConfig, design_sensitivity_study, power_study

DEFAULT_SEED_ENV = "PAIREDSURV_SEED"


class ConfigError(Exception):
    """Bad flags or config file; mapped to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@dataclass
class RunManifest:
    command: str
    options: dict
    seed: int
    version: str
    created: str


def _manifest(command, args, seed) -> RunManifest:
    options = {k: v for k, v in sorted(vars(args).items()) if k not in ("func",)}
    return RunManifest(
        command=command,
        options=options,
        seed=seed,
        version=__version__,
        created=datetime.now(timezone.utc).isoformat(),
    )


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(DEFAULT_SEED_ENV)
    return int(env) if env else 0


def _write_out(path, manifest, result) -> None:
    doc = {"manifest": asdict(manifest), "result": result}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_direction(direction, kind) -> str:
    """Map benefit/harm onto the score kind's tail; pass upper/lower through."""
    if direction in ("upper", "lower"):
        return direction
    tail = benefit_tail(kind)
    if direction == "benefit":
        return tail
    return "upper" if tail == "lower" else "lower"


def _result_doc(res) -> dict:
    return {
        "statistic": res.statistic,
        "null_mean": res.null_mean,
        "null_sd": res.null_sd,
        "p_value": res.p_value,
        "gamma": res.gamma,
        "method": res.method,
        "direction": res.direction,
        "tau": res.tau,
    }


def _parse_grid(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad comma-separated number list {text!r}") from exc


# -- subcommand implementations -----------------------------------------

def cmd_test(args) -> int:
    sample = load_csv(args.data)
    seed = _resolve_seed(args)
    direction = _resolve_direction(args.direction, args.score)
    if args.score == "pseudo" and args.tau is None:
        raise ConfigError("--tau is required for pseudo scores")
    if args.score != "pseudo" and args.tau is not None:
        raise ConfigError(f"--tau does not apply to {args.score} scores")
    scores = pair_differences(sample, args.score, args.tau)
    res = _score_test(scores, sample, args.gamma, args.method, direction,
                      args.tau, n_draws=args.draws, seed=seed)
    label = f"tau={args.tau:g}" if args.tau is not None else "whole follow-up"
    print(f"{args.score} score test ({label}), gamma={args.gamma:g}, "
          f"{res.direction} tail, method={res.method}")
    print(f"  statistic {res.statistic:.3f}   null mean {res.null_mean:.3f}   "
          f"null sd {res.null_sd:.3f}")
    print(f"  p-value   {res.p_value:.3f}")
    if args.verbose:
        ids = sample.pair_ids or [str(i + 1) for i in range(sample.n_pairs)]
        print("  pair differences:")
        for pid, d in zip(ids, scores.d):
            print(f"    {pid}: d = {d:.3f}")
    if args.out:
        doc = _result_doc(res)
        if args.verbose:
            doc["pair_differences"] = [float(v) for v in scores.d]
        _write_out(args.out, _manifest("test", args, seed), doc)
    return 0


def cmd_overall(args) -> int:
    sample = load_csv(args.data)
    seed = _resolve_seed(args)
    direction = "harm" if args.direction == "harm" else "benefit"
    diff = _max_diff(sample, _parse_grid(args.grid), args.include_ppw)
    res = _test_diff(diff, sample.assignment, args.gamma, args.method,
                     direction, args.tol, seed, n_draws=args.draws)
    print(f"max-type overall test, gamma={args.gamma:g}, {direction}, "
          f"method={res.method}")
    print(f"  statistic {res.statistic:.3f}   p-value {res.p_value:.3f}")
    if np.all(diff.sigma > 0):
        mat = correlations(diff.D if args.gamma == 1.0 else np.abs(diff.D))
        print(f"  correlation matrix ({mat.shape[0]} columns: "
              f"{', '.join(str(l) for l in diff.labels)}):")
        for row in mat:
            print("    " + " ".join(f"{v:6.3f}" for v in row))
    if args.out:
        doc = _result_doc(res)
        doc["grid"] = list(_parse_grid(args.grid))
        doc["include_ppw"] = args.include_ppw
        _write_out(args.out, _manifest("overall", args, seed), doc)
    return 0


def cmd_sens(args) -> int:
    sample = load_csv(args.data)
    seed = _resolve_seed(args)
    if (args.tau is None) == (args.grid is None):
        raise ConfigError("give exactly one of --tau or --grid")
    if args.tau is not None and args.include_ppw:
        raise ConfigError("--include-ppw applies only to --grid")
    grid = _parse_grid(args.grid) if args.grid else None
    direction = _resolve_direction(args.direction, "pseudo")
    p_at = _worst_case_p(sample, args.tau, grid, direction, args.include_ppw,
                         seed, mvn_tol=args.tol)

    rows = []
    if args.gamma_grid:
        rows = [{"gamma": g, "p_value": p_at(g)} for g in _parse_grid(args.gamma_grid)]
        print("gamma   worst-case p")
        for row in rows:
            print(f"{row['gamma']:5.2f}   {row['p_value']:.3f}")

    found = None
    if args.search or not args.gamma_grid:
        sv = _search(p_at, args.alpha, args.sens_tol, args.gamma_max)
        found = {
            "gamma": sv.value,
            "already_sensitive": sv.already_sensitive,
            "exceeded_max": sv.exceeded_max,
            "alpha": sv.alpha,
        }
        if sv.already_sensitive:
            print(f"already sensitive: worst-case p exceeds {args.alpha:g} at gamma = 1")
        elif sv.exceeded_max:
            print(f"insensitive up to gamma_max = {args.gamma_max:g}")
        else:
            print(f"sensitivity value: gamma = {sv.value:.3f} (alpha = {args.alpha:g})")
    if args.out:
        _write_out(args.out, _manifest("sens", args, seed),
                   {"table": rows, "sensitivity_value": found})
    return 0


def cmd_closed(args) -> int:
    sample = load_csv(args.data)
    seed = _resolve_seed(args)
    report = closed_test(sample, _parse_grid(args.grid), alpha=args.alpha,
                         gamma=args.gamma, seed=seed, tol=args.tol)
    print(f"closed testing, gamma={args.gamma:g}, alpha={args.alpha:g}")
    print("  tau    adjusted p   rejected")
    for tau in report.taus:
        print(f"  {tau:5g}  {report.adjusted_p[tau]:10.3f}   "
              f"{'yes' if report.rejected[tau] else 'no'}")
    if args.out:
        _write_out(args.out, _manifest("closed", args, seed), {
            "taus": list(report.taus),
            "adjusted_p": {str(k): v for k, v in report.adjusted_p.items()},
            "rejected": {str(k): bool(v) for k, v in report.rejected.items()},
            "alpha": report.alpha,
            "gamma": report.gamma,
        })
    return 0


def cmd_km(args) -> int:
    sample = load_csv(args.data)
    treated_mask = np.repeat(sample.assignment == 1, 2)
    treated_mask[1::2] = ~treated_mask[1::2]
    rows = [("group", "time", "survival")]
    for label, mask in (("treated", treated_mask), ("control", ~treated_mask)):
        curve = km_estimate(sample.unit_times[mask], sample.unit_events[mask])
        rows.append((label, "0", "1"))
        for t, v in zip(curve.knots, curve.values):
            rows.append((label, repr(float(t)), repr(float(v))))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {len(rows) - 1} curve points to {args.out}")
    else:
        for row in rows:
            print(",".join(row))
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    result = power_study(config)
    print(f"scenario    gamma  test       rate    mc_se   ({config.replications} reps)")
    for row in result.rows:
        print(f"{row.scenario:11s} {row.gamma:5.2f}  {row.test:9s} "
              f"{row.rate:6.3f}  {row.mc_se:6.3f}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "gamma", "test", "rate", "mc_se",
                             "rejections", "replications"])
            for row in result.rows:
                writer.writerow([row.scenario, repr(row.gamma), row.test,
                                 repr(row.rate), repr(row.mc_se),
                                 row.rejections, row.replications])
    if args.out:
        _write_out(args.out, _manifest("simulate", args, config.seed), {
            "config": config.to_dict(),
            "rows": [
                {"scenario": r.scenario, "gamma": r.gamma, "test": r.test,
                 "rate": r.rate, "mc_se": r.mc_se,
                 "rejections": r.rejections, "replications": r.replications}
                for r in result.rows
            ],
        })
    return 0


def cmd_design_sens(args) -> int:
    config = _load_config(args)
    results = design_sensitivity_study(config)
    taus = list(config.grid)
    header = "scenario    " + "".join(f"tau={t:<6g}" for t in taus) + "overall"
    print(header)
    for res in results:
        cells = "".join(f"{res.per_tau[float(t)]:<10.3f}" for t in taus)
        print(f"{res.scenario.id:11s} {cells}{res.overall:.3f}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario"] + [f"tau={t:g}" for t in taus] + ["overall"])
            for res in results:
                writer.writerow([res.scenario.id]
                                + [repr(res.per_tau[float(t)]) for t in taus]
                                + [repr(res.overall)])
    if args.out:
        _write_out(args.out, _manifest("design-sens", args, config.seed), {
            "config": config.to_dict(),
            "results": [
                {"scenario": r.scenario.id, "overall": r.overall,
                 "per_tau": {str(k): v for k, v in r.per_tau.items()},
                 "sample_size": r.sample_size}
                for r in results
            ],
        })
    return 0


def _load_config(args) -> StudyConfig:
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {args.config}: {exc}") from exc
    if args.replications is not None:
        doc["replications"] = args.replications
    if args.pairs is not None:
        doc["pairs"] = args.pairs
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    try:
        return StudyConfig.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config {args.config}: {exc}") from exc


# -- parser wiring -------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pairedsurv",
                     description="Randomization tests for matched-pair censored outcomes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True):
        if data:
            p.add_argument("data", help="CSV with pair_id,position,treated,time,event")
        p.add_argument("--out", help="write a JSON result document here")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${DEFAULT_SEED_ENV} or 0)")

    p = sub.add_parser("test", help="time-specific or score test of no effect")
    add_common(p)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--method", choices=("normal", "exact", "montecarlo"),
                   default="normal")
    p.add_argument("--direction", choices=("benefit", "harm", "upper", "lower"),
                   default="benefit")
    p.add_argument("--score", choices=("pseudo", "logrank", "pw"), default="pseudo")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--verbose", action="store_true", help="dump per-pair differences")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("overall", help="max-type overall test across a grid")
    add_common(p)
    p.add_argument("--grid", required=True, help="comma-separated times")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--include-ppw", action="store_true")
    p.add_argument("--method", choices=("normal", "montecarlo"), default="normal")
    p.add_argument("--direction", choices=("benefit", "harm"), default="benefit")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--draws", type=int, default=100_000)
    p.set_defaults(func=cmd_overall)

    p = sub.add_parser("sens", help="sensitivity table or sensitivity value")
    add_common(p)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--gamma-grid", default=None, help="comma-separated gammas")
    p.add_argument("--search", action="store_true", help="bisect for the sensitivity value")
    p.add_argument("--sens-tol", type=float, default=1e-3)
    p.add_argument("--gamma-max", type=float, default=10.0)
    p.add_argument("--direction", choices=("benefit", "harm", "upper", "lower"),
                   default="benefit")
    p.add_argument("--include-ppw", action="store_true")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_sens)

    p = sub.add_parser("closed", help="closed testing for effect duration")
    add_common(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_closed)

    p = sub.add_parser("km", help="export treated/control survival curves as CSV")
    add_common(p)
    p.set_defaults(func=cmd_km)

    p = sub.add_parser("simulate", help="power study from a JSON config")
    add_common(p, data=False)
    p.add_argument("config")
    p.add_argument("--csv", help="write rates as CSV here")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("design-sens", help="design sensitivities from a JSON config")
    add_common(p, data=False)
    p.add_argument("config")
    p.add_argument("--csv")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.set_defaults(func=cmd_design_sens)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        unresolved = [w for w in caught if issubclass(w.category, AccuracyNotReached)]
        for w in caught:
            if not issubclass(w.category, AccuracyNotReached):
                print(f"warning: {w.message}", file=sys.stderr)
        if unresolved:
            print(f"error: {unresolved[0].message}", file=sys.stderr)
            return 3
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PairedSurvError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
