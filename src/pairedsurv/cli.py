"""Command-line interface over the library.

Subcommands: ``test`` (time-specific), ``overall`` (max-type), ``sens``
(sensitivity tables / sensitivity value), ``closed`` (closed testing),
``simulate`` / ``design-sens`` (study drivers from a JSON config), and
``km`` (plot-ready survival-curve export).  A numeric flag is parsed with
the library's check of its value, and the rules between flags run right
after parsing; ``main`` then reads the one input (``load_csv``, which
reads the CSV by columns, or ``StudyConfig.from_json``) and passes it to
the command, which prints a human table.  The parser is built once per
process, so a script, notebook or test that calls ``main`` many times
pays for it once.  With ``--out``, ``km`` writes its curves as CSV and every
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
import sys
import warnings
from dataclasses import asdict, replace
from datetime import datetime, timezone
from functools import cache, partial

import numpy as np

from . import __version__
from .closed import closed_test
from .data import load_csv
from .errors import (AccuracyNotReached, as_grid, check_alpha, check_draws, check_gamma,
                     check_seed, check_tau, check_tol, check_whole)
from .km import km_estimate
from .overall import diff_matrix, max_test
from .scores import pair_differences
from .sensitivity import correlations, score_test, sensitivity_value
from .simulate import (MIN_PAIRS, MIN_REPLICATIONS, StudyConfig, design_sensitivity_study,
                       power_study)


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


def _checked(check, what):
    """argparse type: the flag's text as a number the library's ``check`` accepts."""
    def parse(text):
        try:  # digits alone stay an exact int, so a long seed keeps every digit
            return check(int(text) if text.isdigit() else float(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None
    return parse


_GAMMA = _checked(check_gamma, "a finite gamma >= 1")
_ALPHA = _checked(check_alpha, "an alpha in (0, 1)")
_TOL = _checked(lambda t: check_tol(t, "tol"), "a finite tolerance > 0")
_DRAWS = _checked(check_draws, "a draw count >= 1")
_SEED = _checked(check_seed, "a non-negative integer seed")
_TAU = _checked(check_tau, "a time >= 0")
_GRID_TIME = _checked(lambda t: float(as_grid([t])[0]), "a time > 0")
_PAIRS = _checked(partial(check_whole, least=MIN_PAIRS, name="pairs"),
                  f"a whole number >= {MIN_PAIRS}")
_REPLICATIONS = _checked(partial(check_whole, least=MIN_REPLICATIONS, name="replications"),
                         f"a whole number >= {MIN_REPLICATIONS}")


def _grid(text):
    """argparse type: a comma-separated number list that ``as_grid`` accepts."""
    try:
        grid = tuple(map(float, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated number list") from None
    try:
        as_grid(grid)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return grid


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
    # encoded before the file is opened, so a failed encoding writes nothing,
    # and written in one call rather than one per encoder chunk
    text = json.dumps(_json_ready({"manifest": manifest, "result": result}),
                      indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {len(rows) - 1} rows to {path}")


# -- subcommand implementations -----------------------------------------

def cmd_test(sample, args) -> tuple:
    res = score_test(sample, args.score, args.tau, args.gamma, args.method,
                     args.direction, args.draws, args.seed)
    label = f"tau={args.tau:g}" if args.tau is not None else "whole follow-up"
    print(f"{args.score} score test ({label}), gamma={args.gamma:g}, "
          f"{res.direction} tail, method={res.method}")
    print(f"  statistic {res.statistic:.3f}   null mean {res.null_mean:.3f}   "
          f"null sd {res.null_sd:.3f}")
    print(f"  p-value   {res.p_value:.3f}")
    doc = asdict(res)
    if args.verbose:
        scores = pair_differences(sample, args.score, args.tau)
        ids = sample.pair_ids or [str(i + 1) for i in range(sample.n_pairs)]
        print("  pair differences:")
        for pid, d in zip(ids, scores):
            print(f"    {pid}: d = {d:.3f}")
        doc["pair_differences"] = [float(v) for v in scores]
    return args.seed, doc, None


def cmd_overall(sample, args) -> tuple:
    diff = diff_matrix(sample, args.grid, args.include_ppw)
    res = max_test(diff, args.gamma, args.direction, args.tol, args.seed)
    print(f"max-type overall test, gamma={args.gamma:g}, {args.direction}, "
          f"method={res.method}")
    print(f"  statistic {res.statistic:.3f}   p-value {res.p_value:.3f}")
    live = ~diff.dropped
    if np.any(live):
        mat = correlations(diff.D[:, live], res.gamma)
        labels = [str(l) for l, ok in zip(diff.labels, live) if ok]
        print(f"  correlation matrix ({mat.shape[0]} columns: {', '.join(labels)}):")
        for row in mat:
            print("    " + " ".join(f"{v:6.3f}" for v in row))
    doc = asdict(res)
    doc["grid"] = list(args.grid)
    doc["include_ppw"] = args.include_ppw
    return args.seed, doc, None


def cmd_sens(sample, args) -> tuple:
    diff = diff_matrix(sample, args.grid or (args.tau,), args.include_ppw)
    rows = []
    if args.gamma_grid:
        results = [max_test(diff, g, args.direction, args.tol, args.seed)
                   for g in args.gamma_grid]
        rows = [{"gamma": r.gamma, "p_value": r.p_value} for r in results]
        print("gamma   worst-case p")
        for row in rows:
            print(f"{row['gamma']:5.2f}   {row['p_value']:.3f}")

    found = None
    if args.search or not args.gamma_grid:
        sv = sensitivity_value(diff, args.alpha, args.sens_tol, args.gamma_max,
                               args.direction, args.seed, mvn_tol=args.tol)
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
    report = closed_test(diff_matrix(sample, args.grid), alpha=args.alpha,
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


def _check_flag_pairs(args) -> None:
    """The rules between flags, checked before any input is read."""
    if args.command == "test" and (args.tau is None) == (args.score == "pseudo"):
        raise ConfigError("--tau is required for pseudo scores" if args.tau is None
                          else f"--tau does not apply to {args.score} scores")
    if args.command == "sens" and args.tau is not None and args.include_ppw:
        raise ConfigError("--include-ppw applies only to --grid")


# -- parser wiring -------------------------------------------------------

@cache
def build_parser() -> _Parser:
    """The one parser of this process.  ``parse_args`` keeps no state between
    calls (every default is immutable), so repeated ``main`` calls share it;
    callers must not change it."""
    parser = _Parser(prog="pairedsurv",
                     description="Randomization tests for matched-pair censored outcomes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True, seed=True):
        if data:
            p.add_argument("data", help="CSV with pair_id,position,treated,time,event")
        p.add_argument("--out", help="write a JSON result document here")
        if seed:
            p.add_argument("--seed", type=_SEED, default=0 if data else None,
                           help="RNG seed (default: 0)" if data
                           else "RNG seed (default: the config's seed)")

    p = sub.add_parser("test", help="time-specific or score test of no effect")
    add_common(p)
    p.add_argument("--tau", type=_TAU, default=None)
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
    p.add_argument("--grid", type=_grid, required=True, help="comma-separated times")
    p.add_argument("--gamma", type=_GAMMA, default=1.0)
    p.add_argument("--include-ppw", action="store_true")
    p.add_argument("--direction", choices=("benefit", "harm"), default="benefit")
    p.add_argument("--tol", type=_TOL, default=1e-4)
    p.set_defaults(func=cmd_overall)

    p = sub.add_parser("sens", help="sensitivity table or sensitivity value")
    add_common(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--tau", type=_GRID_TIME, default=None)
    target.add_argument("--grid", type=_grid, default=None)
    p.add_argument("--alpha", type=_ALPHA, default=0.05)
    p.add_argument("--gamma-grid", type=lambda text: tuple(map(_GAMMA, text.split(","))),
                   default=None, help="comma-separated gammas")
    p.add_argument("--search", action="store_true", help="bisect for the sensitivity value")
    p.add_argument("--sens-tol", type=_TOL, default=1e-3)
    p.add_argument("--gamma-max", type=_GAMMA, default=10.0)
    p.add_argument("--direction", choices=("benefit", "harm"), default="benefit")
    p.add_argument("--include-ppw", action="store_true")
    p.add_argument("--tol", type=_TOL, default=1e-4)
    p.set_defaults(func=cmd_sens)

    p = sub.add_parser("closed", help="closed testing for effect duration")
    add_common(p)
    p.add_argument("--grid", type=_grid, required=True)
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
    p.add_argument("--replications", type=_REPLICATIONS, default=None)
    p.add_argument("--pairs", type=_PAIRS, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("design-sens", help="design sensitivities from a JSON config")
    add_common(p, data=False)
    p.add_argument("config")
    p.add_argument("--csv")
    p.add_argument("--pairs", type=_PAIRS, default=None)
    p.set_defaults(func=cmd_design_sens)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flag_pairs(args)
        source = load_csv(args.data) if "data" in args else _load_config(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seed, result, table = args.func(source, args)
        unresolved = [w for w in caught if issubclass(w.category, AccuracyNotReached)]
        # each distinct warning once: design-sens builds a matrix, and may warn, per scenario
        for message in dict.fromkeys(str(w.message) for w in caught
                                     if not issubclass(w.category, AccuracyNotReached)):
            print(f"warning: {message}", file=sys.stderr)
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
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
