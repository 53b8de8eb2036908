"""Command-line interface over the library.

Subcommands: ``test`` (time-specific), ``overall`` (max-type), ``sens``
(sensitivity tables / sensitivity value), ``closed`` (closed testing),
``simulate`` / ``design-sens`` (study drivers from a JSON config), and
``km`` (plot-ready survival-curve export).  Flags, ``--grid`` included,
are checked when parsed; ``main`` then reads the one input (``load_csv``
or ``StudyConfig.from_json``) and passes it to the command, which prints
a human table.  With ``--out``, ``km`` writes its curves as CSV and every
other command a strict JSON document (null for non-finite numbers) with
its run manifest.  These files and the ``--csv`` tables of ``simulate``/
``design-sens`` are written only after a successful run, never on exit
3.  Exit codes: 0 success, 2 input error, 3 numeric failure, 4
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .closed import closed_test
from .data import load_csv
from .errors import AccuracyNotReached
from .km import km_estimate
from .overall import _max_corr, _max_diff, _test_diff
from .scores import _sign, pair_differences
from .sensitivity import _score_test, _search, _worst_case_p
from .simulate import StudyConfig, design_sensitivity_study, power_study

DEFAULT_SEED_ENV = "PAIREDSURV_SEED"


class ConfigError(Exception):
    """Bad flags or config file; mapped to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _manifest(command, args, seed) -> dict:
    return {
        "command": command,
        "options": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": seed,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }


def _checked(convert, ok, what):
    """argparse type: ``convert`` the flag's text, then require ``ok``."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_GAMMA = _checked(float, lambda g: 1.0 <= g < math.inf, "a finite gamma >= 1")
_ALPHA = _checked(float, lambda a: 0.0 < a < 1.0, "an alpha in (0, 1)")
_TOL = _checked(float, lambda t: t > 0.0, "a tolerance > 0")
_DRAWS = _checked(int, lambda n: n >= 1, "a draw count >= 1")
_SEED = _checked(int, lambda n: n >= 0,
                 f"a non-negative integer seed (from --seed or ${DEFAULT_SEED_ENV})")
_STUDY_SEED = _checked(int, lambda n: n >= 0, "a non-negative integer seed")
_GRID = _checked(lambda text: tuple(float(v) for v in text.split(",")),
                 lambda grid: True, "a comma-separated number list")


def _gammas(text):
    return tuple(map(_GAMMA, text.split(",")))


def _json_ready(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _write_out(path, manifest, result) -> None:
    doc = _json_ready({"manifest": manifest, "result": result})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {len(rows) - 1} rows to {path}")


# -- subcommand implementations -----------------------------------------

def cmd_test(sample, args) -> tuple:
    if args.score == "pseudo" and args.tau is None:
        raise ConfigError("--tau is required for pseudo scores")
    if args.score != "pseudo" and args.tau is not None:
        raise ConfigError(f"--tau does not apply to {args.score} scores")
    scores = pair_differences(sample, args.score, args.tau)
    res = _score_test(scores, sample, args.gamma, args.method,
                      _sign(args.score, args.direction), args.tau,
                      n_draws=args.draws, seed=args.seed)
    label = f"tau={args.tau:g}" if args.tau is not None else "whole follow-up"
    print(f"{args.score} score test ({label}), gamma={args.gamma:g}, "
          f"{res.direction} tail, method={res.method}")
    print(f"  statistic {res.statistic:.3f}   null mean {res.null_mean:.3f}   "
          f"null sd {res.null_sd:.3f}")
    print(f"  p-value   {res.p_value:.3f}")
    if args.verbose:
        ids = sample.pair_ids or [str(i + 1) for i in range(sample.n_pairs)]
        print("  pair differences:")
        for pid, d in zip(ids, scores):
            print(f"    {pid}: d = {d:.3f}")
    doc = asdict(res)
    if args.verbose:
        doc["pair_differences"] = [float(v) for v in scores]
    return args.seed, doc, None


def cmd_overall(sample, args) -> tuple:
    diff = _max_diff(sample, args.grid, args.include_ppw)
    res = _test_diff(diff, sample.assignment, args.gamma, args.direction,
                     args.tol, args.seed)
    print(f"max-type overall test, gamma={args.gamma:g}, {args.direction}, "
          f"method={res.method}")
    print(f"  statistic {res.statistic:.3f}   p-value {res.p_value:.3f}")
    live = diff.sigma > 0
    if np.any(live):
        mat = _max_corr(diff.D[:, live], res.gamma)
        labels = [str(l) for l, ok in zip(diff.labels, live) if ok]
        print(f"  correlation matrix ({mat.shape[0]} columns: {', '.join(labels)}):")
        for row in mat:
            print("    " + " ".join(f"{v:6.3f}" for v in row))
    doc = asdict(res)
    doc["grid"] = list(args.grid)
    doc["include_ppw"] = args.include_ppw
    return args.seed, doc, None


def cmd_sens(sample, args) -> tuple:
    if args.tau is not None and args.include_ppw:
        raise ConfigError("--include-ppw applies only to --grid")
    p_at = _worst_case_p(sample, args.tau, args.grid, args.direction,
                         args.include_ppw, args.seed, mvn_tol=args.tol)

    rows = []
    if args.gamma_grid:
        rows = [{"gamma": g, "p_value": p_at(g)} for g in args.gamma_grid]
        print("gamma   worst-case p")
        for row in rows:
            print(f"{row['gamma']:5.2f}   {row['p_value']:.3f}")

    found = None
    if args.search or not args.gamma_grid:
        sv = _search(p_at, args.alpha, args.sens_tol, args.gamma_max)
        found = asdict(sv)
        found["gamma"] = found.pop("value")
        if sv.already_sensitive:
            print(f"already sensitive: worst-case p exceeds {args.alpha:g} at gamma = 1")
        elif sv.exceeded_max:
            print(f"insensitive up to gamma_max = {args.gamma_max:g}")
        else:
            print(f"sensitivity value: gamma = {sv.value:.3f} (alpha = {args.alpha:g})")
    return args.seed, {"table": rows, "sensitivity_value": found}, None


def cmd_closed(sample, args) -> tuple:
    report = closed_test(sample, args.grid, alpha=args.alpha,
                         gamma=args.gamma, seed=args.seed, tol=args.tol)
    print(f"closed testing, gamma={args.gamma:g}, alpha={args.alpha:g}")
    print("  tau    adjusted p   rejected")
    for tau in report.taus:
        print(f"  {tau:5g}  {report.adjusted_p[tau]:10.3f}   "
              f"{'yes' if report.rejected[tau] else 'no'}")
    return args.seed, {
        "taus": list(report.taus),
        "adjusted_p": {str(k): v for k, v in report.adjusted_p.items()},
        "rejected": {str(k): bool(v) for k, v in report.rejected.items()},
        "alpha": report.alpha,
        "gamma": report.gamma,
    }, None


def cmd_km(sample, args) -> tuple:
    treated_mask = np.repeat(sample.assignment == 1, 2)
    treated_mask[1::2] = ~treated_mask[1::2]
    rows = [("group", "time", "survival")]
    for label, mask in (("treated", treated_mask), ("control", ~treated_mask)):
        curve = km_estimate(sample.unit_times[mask], sample.unit_events[mask])
        rows.append((label, "0", "1"))
        for t, v in zip(curve.knots, curve.values):
            rows.append((label, repr(float(t)), repr(float(v))))
    if not args.out:
        for row in rows:
            print(",".join(row))
    return None, None, rows


def cmd_simulate(config, args) -> tuple:
    result = power_study(config)
    print(f"scenario    gamma  test       rate    mc_se   ({config.replications} reps)")
    for row in result.rows:
        print(f"{row.scenario:11s} {row.gamma:5.2f}  {row.test:9s} "
              f"{row.rate:6.3f}  {row.mc_se:6.3f}")
    columns = ("scenario", "gamma", "test", "rate", "mc_se", "rejections",
               "replications")
    rows = [[getattr(r, c) for c in columns] for r in result.rows]
    return config.seed, {
        "config": config.to_dict(),
        "rows": [dict(zip(columns, row)) for row in rows],
    }, [list(columns), *rows]


def cmd_design_sens(config, args) -> tuple:
    results = design_sensitivity_study(config)
    taus = list(config.grid)
    header = "scenario    " + "".join(f"tau={t:<6g}" for t in taus) + "overall"
    print(header)
    for res in results:
        cells = "".join(f"{res.per_tau[float(t)]:<10.3f}" for t in taus)
        print(f"{res.scenario.id:11s} {cells}{res.overall:.3f}")
    table = [["scenario"] + [f"tau={t:g}" for t in taus] + ["overall"]]
    table += [[r.scenario.id] + [repr(r.per_tau[float(t)]) for t in taus]
              + [repr(r.overall)] for r in results]
    return config.seed, {
        "config": config.to_dict(),
        "results": [
            {"scenario": r.scenario.id, "overall": r.overall,
             "per_tau": {str(k): v for k, v in r.per_tau.items()},
             "sample_size": r.sample_size}
            for r in results
        ],
    }, table


def _load_config(args) -> StudyConfig:
    overrides = {key: getattr(args, key) for key in ("replications", "pairs", "seed")
                 if getattr(args, key, None) is not None}
    try:
        return replace(StudyConfig.from_json(args.config), **overrides)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config {args.config}: {exc}") from exc


# -- parser wiring -------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pairedsurv",
                     description="Randomization tests for matched-pair censored outcomes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True, seed=True):
        if data:
            p.add_argument("data", help="CSV with pair_id,position,treated,time,event")
        p.add_argument("--out", help="write a JSON result document here")
        if seed:  # a string default is parsed like the flag
            p.add_argument("--seed", type=_SEED if data else _STUDY_SEED,
                           default=(os.environ.get(DEFAULT_SEED_ENV) or "0") if data else None,
                           help=f"RNG seed (default: ${DEFAULT_SEED_ENV} or 0)" if data
                           else "RNG seed (default: the config's seed)")

    p = sub.add_parser("test", help="time-specific or score test of no effect")
    add_common(p)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--gamma", type=_GAMMA, default=1.0)
    p.add_argument("--method", choices=("normal", "exact", "montecarlo"),
                   default="normal")
    p.add_argument("--direction", choices=("benefit", "harm"), default="benefit")
    p.add_argument("--score", choices=("pseudo", "logrank", "pw"), default="pseudo")
    p.add_argument("--draws", type=_DRAWS, default=100_000)
    p.add_argument("--verbose", action="store_true", help="dump per-pair differences")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("overall", help="max-type overall test across a grid")
    add_common(p)
    p.add_argument("--grid", type=_GRID, required=True, help="comma-separated times")
    p.add_argument("--gamma", type=_GAMMA, default=1.0)
    p.add_argument("--include-ppw", action="store_true")
    p.add_argument("--direction", choices=("benefit", "harm"), default="benefit")
    p.add_argument("--tol", type=_TOL, default=1e-4)
    p.set_defaults(func=cmd_overall)

    p = sub.add_parser("sens", help="sensitivity table or sensitivity value")
    add_common(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--tau", type=float, default=None)
    target.add_argument("--grid", type=_GRID, default=None)
    p.add_argument("--alpha", type=_ALPHA, default=0.05)
    p.add_argument("--gamma-grid", type=_gammas, default=None,
                   help="comma-separated gammas")
    p.add_argument("--search", action="store_true", help="bisect for the sensitivity value")
    p.add_argument("--sens-tol", type=_TOL, default=1e-3)
    p.add_argument("--gamma-max", type=_GAMMA, default=10.0)
    p.add_argument("--direction", choices=("benefit", "harm"), default="benefit")
    p.add_argument("--include-ppw", action="store_true")
    p.add_argument("--tol", type=_TOL, default=1e-4)
    p.set_defaults(func=cmd_sens)

    p = sub.add_parser("closed", help="closed testing for effect duration")
    add_common(p)
    p.add_argument("--grid", type=_GRID, required=True)
    p.add_argument("--alpha", type=_ALPHA, default=0.05)
    p.add_argument("--gamma", type=_GAMMA, default=1.0)
    p.add_argument("--tol", type=_TOL, default=1e-4)
    p.set_defaults(func=cmd_closed)

    p = sub.add_parser("km", help="export treated/control survival curves as CSV")
    add_common(p, seed=False)
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
        source = load_csv(args.data) if "data" in args else _load_config(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seed, result, table = args.func(source, args)
        unresolved = [w for w in caught if issubclass(w.category, AccuracyNotReached)]
        for w in caught:
            if not issubclass(w.category, AccuracyNotReached):
                print(f"warning: {w.message}", file=sys.stderr)
        if unresolved:
            print(f"error: {unresolved[0].message}", file=sys.stderr)
            return 3
        # every file is written here, only after a run without exit 3;
        # km's CSV goes to --out, the study tables to --csv
        csv_path = args.out if args.command == "km" else getattr(args, "csv", None)
        if table is not None and csv_path:
            _write_csv(csv_path, table)
        if result is not None and args.out:
            _write_out(args.out, _manifest(args.command, args, seed), result)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
