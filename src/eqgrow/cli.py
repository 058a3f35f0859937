"""Command-line interface.

Subcommands: sweep, analyze, fit, bootstrap, forecast, regress, transfer,
pooled, ingest, mu, ode, report.  Exit codes: 0 success, 1 usage error,
2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .closure import ClosureParams, estimate_mu, simulate_ode
from .engine import SUBSTRATES, load_rules
from .growth import (DEFAULT_MODELS, MODELS, bootstrap_ci, oos_forecast,
                     select_model, series_from_sizes)
from .ingest import LogParseError, monthly_series, parse_log
from .regression import (build_features, kfold_cv, pooled_eval, transfer_eval)
from .report import (FIT_CSV_HEADER, domain_table_text, fit_csv_row,
                     read_exponents_csv, read_series_csv, render_table,
                     svg_line_plot, write_csv, write_domain_table_csv,
                     write_exponents_csv, write_histogram_csv,
                     write_window_winners_csv, window_winners_text)
from .sweep import (DEFAULT_WINDOWS, SweepPlan, analyze, long_range_plan,
                    read_sweep_file, run_sweep)

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _trajectories(path) -> list[dict]:
    """The records of a sweep file that hold a trajectory; a file with none
    raises ValueError naming it."""
    good = [r for r in read_sweep_file(path) if "error" not in r]
    if not good:
        raise ValueError(f"{path}: no trajectories")
    return good


def _load_series(path):
    if str(path).endswith(".jsonl"):
        return series_from_sizes(_trajectories(path)[0]["sizes"])
    return read_series_csv(path)


def build_parser() -> _Parser:
    parser = _Parser(prog="eqgrow",
                     description="Equational discovery substrates and "
                                 "growth-law analysis")
    parser.add_argument("--version", action="version",
                        version=f"eqgrow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a trajectory sweep")
    p.add_argument("--out", required=True, help="JSONL output path")
    p.add_argument("--plan", choices=("short-range", "long-range"),
                   default="short-range")
    p.add_argument("--config", help="JSON plan file overriding the named plan")
    p.add_argument("--domains", nargs="+")
    p.add_argument("--generators", nargs="+")
    p.add_argument("--filters", nargs="+")
    p.add_argument("--depths", nargs="+", type=int)
    p.add_argument("--batch-sizes", nargs="+", type=int)
    p.add_argument("--seeds", nargs="+", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--rules-dir", help="also dump each run's committed rules "
                                       "here; configs without a rule file rerun")

    p = sub.add_parser("analyze", help="fit exponents and window winners")
    p.add_argument("trajectories", help="sweep JSONL file")
    p.add_argument("--windows", nargs="+", type=int,
                   default=list(DEFAULT_WINDOWS))
    p.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS),
                   choices=list(MODELS))
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("fit", help="fit growth models to one series")
    p.add_argument("series", help="CSV with t,n columns or sweep JSONL")
    p.add_argument("--models", nargs="+", default=list(MODELS),
                   choices=list(MODELS))
    p.add_argument("--out", help="optional CSV output path")

    p = sub.add_parser("bootstrap", help="residual-resampling intervals")
    p.add_argument("series")
    p.add_argument("--model", default="saturating_pl", choices=list(MODELS))
    p.add_argument("--resamples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("forecast", help="prefix fit, suffix score")
    p.add_argument("series")
    p.add_argument("--split", type=int, required=True)
    p.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS),
                   choices=list(MODELS))

    p = sub.add_parser("regress", help="within-substrate cross-validation")
    p.add_argument("exponents", help="exponents CSV from analyze")
    p.add_argument("--domains", nargs="+", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--shuffle-seed", type=int, default=0)
    p.add_argument("--include-seed", action="store_true")
    p.add_argument("--out", help="write held-out actual,predicted pairs CSV")

    p = sub.add_parser("transfer", help="train on one substrate set, test another")
    p.add_argument("exponents")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--test", nargs="+", required=True)
    p.add_argument("--out", help="write test actual,predicted pairs CSV")

    p = sub.add_parser("pooled", help="pooled CV with the domain feature")
    p.add_argument("exponents")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--shuffle-seed", type=int, default=0)
    p.add_argument("--no-domain", action="store_true",
                   help="ablation: drop the domain one-hot")
    p.add_argument("--out", help="write held-out actual,predicted pairs CSV")

    p = sub.add_parser("ingest", help="git history export to monthly series")
    p.add_argument("log", help="history export file, - for stdin")
    p.add_argument("--mode", choices=("commits", "new_files"),
                   default="commits")
    p.add_argument("--glob", help="path pattern for new_files mode")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("mu", help="coverage-fraction estimate for a rule file")
    p.add_argument("rules", help="rule file from sweep --rules-dir")
    p.add_argument("--domain", required=True, choices=list(SUBSTRATES))
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", help="optional CSV output prefix")
    p.add_argument("--subterm-positions", action="store_true")

    p = sub.add_parser("ode", help="integrate the closure growth ODE")
    p.add_argument("--throughput", type=float, required=True)
    p.add_argument("--exponent", type=float, required=True)
    p.add_argument("--coverage", type=float, default=0.0)
    p.add_argument("--n0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("report", help="render analyze output as text or SVG")
    p.add_argument("out_dir", help="directory produced by analyze")
    p.add_argument("--format", choices=("text", "svg"), default="text")
    p.add_argument("--trajectories", help="sweep JSONL for svg trajectory plots")
    return parser


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    plan = long_range_plan() if args.plan == "long-range" else SweepPlan()
    names = [f.name for f in fields(plan)]  # also the dests of the flags
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: a plan file must be a JSON object")
        unknown = sorted(set(overrides) - set(names))
        if unknown:
            raise ValueError(f"{args.config}: unknown plan keys {unknown}")
    overrides.update({name: getattr(args, name) for name in names
                      if getattr(args, name) is not None})
    plan = replace(plan, **overrides)
    done = {"count": 0}

    def progress(i, total):
        done["count"] = i
        print(f"\r{i}/{total} configurations", end="", file=sys.stderr)

    records = run_sweep(plan, args.out, progress=progress,
                        rules_dir=args.rules_dir)
    if done["count"]:
        print(file=sys.stderr)
    errors = sum(1 for r in records if "error" in r)
    print(f"{len(records)} trajectories in {args.out} ({errors} errors)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    report = analyze(_trajectories(args.trajectories),
                     windows=tuple(args.windows),
                     models=tuple(args.models))
    os.makedirs(args.out_dir, exist_ok=True)
    write_exponents_csv(os.path.join(args.out_dir, "exponents.csv"), report)
    write_domain_table_csv(os.path.join(args.out_dir, "domain_table.csv"), report)
    write_window_winners_csv(os.path.join(args.out_dir, "window_winners.csv"), report)
    write_histogram_csv(os.path.join(args.out_dir, "histogram.csv"), report)
    print(domain_table_text(report))
    if report.window_winners:
        print(window_winners_text(report))
    return EXIT_OK


def _cmd_fit(args) -> int:
    series = _load_series(args.series)
    ranked = select_model(series, tuple(args.models))
    rows = [fit_csv_row(fit) for fit in ranked]
    print(render_table(FIT_CSV_HEADER, rows))
    if args.out:
        write_csv(args.out, FIT_CSV_HEADER, rows)
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    series = _load_series(args.series)
    result = bootstrap_ci(args.model, series, n_resamples=args.resamples,
                          seed=args.seed)
    rows = [[name, lo, hi, point]
            for name, (lo, hi, point) in result.intervals.items()]
    print(render_table(("param", "lower95", "upper95", "point"), rows))
    print(f"failed_fraction={result.fraction_failed:.3f} "
          f"degenerate={int(result.degenerate)}")
    return EXIT_OK


def _cmd_forecast(args) -> int:
    series = _load_series(args.series)
    results = oos_forecast(series, args.split, tuple(args.models))
    rows = [[r.model, r.split, r.rmse_oos, r.mape_oos] for r in results]
    print(render_table(("model", "split", "rmse_oos", "mape_oos"), rows))
    return EXIT_OK


def _write_pairs(path, actual, predicted):
    write_csv(path, ("actual", "predicted"),
              [[float(a), float(p)] for a, p in zip(actual, predicted)])


def _cmd_regress(args) -> int:
    rows = read_exponents_csv(args.exponents)
    rows = [r for r in rows if r["domain"] in args.domains]
    if not rows:
        raise ValueError("no rows for requested domains")
    X = build_features(rows, include_seed=args.include_seed)
    y = np.array([r["b"] for r in rows])
    report = kfold_cv(X, y, folds=args.folds, shuffle_seed=args.shuffle_seed)
    print(f"r2 = {report.r2_mean:.3f} +/- {report.r2_std:.3f}  "
          f"mae = {report.mae_mean:.3f}  (n = {len(rows)})")
    if args.out:
        _write_pairs(args.out, y, report.predictions)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    rows = read_exponents_csv(args.exponents)
    train = [r for r in rows if r["domain"] in args.train]
    test = [r for r in rows if r["domain"] in args.test]
    if not train or not test:
        raise ValueError("empty train or test population")
    y_test = np.array([r["b"] for r in test])
    report = transfer_eval(build_features(train),
                           np.array([r["b"] for r in train]),
                           build_features(test), y_test)
    print(f"transfer r2 = {report.r2_mean:.3f}  mae = {report.mae_mean:.3f}  "
          f"mean_pred = {report.mean_pred:.3f}  mean_actual = {report.mean_actual:.3f}")
    if args.out:
        _write_pairs(args.out, y_test, report.predictions)
    return EXIT_OK


def _cmd_pooled(args) -> int:
    rows = read_exponents_csv(args.exponents)
    y = np.array([r["b"] for r in rows])
    report = pooled_eval(rows, y, folds=args.folds,
                         shuffle_seed=args.shuffle_seed,
                         include_domain=not args.no_domain)
    print(f"pooled r2 = {report.r2_mean:.3f} +/- {report.r2_std:.3f}  "
          f"mae = {report.mae_mean:.3f}")
    if args.out:
        _write_pairs(args.out, y, report.predictions)
    return EXIT_OK


def _cmd_ingest(args) -> int:
    try:
        if args.log == "-":
            records = parse_log(sys.stdin)
        else:
            with open(args.log, encoding="utf-8") as fh:
                records = parse_log(fh)
    except LogParseError as exc:
        name = "<stdin>" if args.log == "-" else args.log
        raise LogParseError(f"{name}: {exc}") from None
    series = monthly_series(records, mode=args.mode, glob=args.glob)
    write_csv(args.out, ("month", "t", "n"),
              [[month, i, n] for i, (month, n)
               in enumerate(zip(series.months, series.cumulative), 1)])
    total = series.cumulative[-1] if series.cumulative else 0
    print(f"{len(records)} commits, {len(series.months)} months, "
          f"total {total} -> {args.out}")
    return EXIT_OK


def _cmd_mu(args) -> int:
    spec = SUBSTRATES[args.domain]
    rules = load_rules(spec, args.rules)
    if not rules:
        raise ValueError(f"{args.rules}: no rules")
    depth = args.depth
    if depth is None:
        depth = 2 if args.domain == "list" else 3
    report = estimate_mu([r.lhs for r in rules], spec, depth,
                         subterm_positions=args.subterm_positions)
    print(f"mu_hat = {report.mu_hat:.6g} over {len(rules)} rules at depth "
          f"{depth} (space {report.space_size})")
    if args.out:
        write_csv(args.out + "_fractions.csv", ("rule_index", "fraction"),
                  [[i, f] for i, f in enumerate(report.fractions)])
        write_csv(args.out + "_overlap.csv",
                  ["i"] + [str(j) for j in range(len(rules))],
                  ([i] + row.tolist() for i, row in enumerate(report.overlap)))
    return EXIT_OK


def _cmd_ode(args) -> int:
    params = ClosureParams(throughput=args.throughput, exponent=args.exponent,
                           coverage=args.coverage, n0=args.n0)
    series = simulate_ode(params, args.t_end, args.dt)
    write_csv(args.out, ("t", "n"),
              [[format(t, ".12g"), format(n, ".12g")]
               for t, n in zip(series.t, series.n)])
    print(f"{len(series)} samples -> {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    exp_path = os.path.join(args.out_dir, "exponents.csv")
    if not os.path.exists(exp_path):
        raise ValueError(f"{exp_path}: run analyze first")
    if args.format == "text":
        with open(os.path.join(args.out_dir, "domain_table.csv"),
                  encoding="utf-8") as fh:
            print(fh.read())
        return EXIT_OK
    if not args.trajectories:
        raise ValueError("--trajectories is required for svg output")
    named = []
    for rec in _trajectories(args.trajectories)[:6]:
        sizes = [max(v, 1e-9) for v in rec["sizes"]]
        label = (f'{rec["domain"]}/{rec["generator"]}/{rec["filter"]}'
                 f'/d{rec["depth"]}/bs{rec["batch_size"]}/s{rec["seed"]}')
        named.append((label, list(range(1, len(sizes) + 1)), sizes))
    out = os.path.join(args.out_dir, "trajectories.svg")
    svg_line_plot(out, named)
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep, "analyze": _cmd_analyze, "fit": _cmd_fit,
    "bootstrap": _cmd_bootstrap, "forecast": _cmd_forecast,
    "regress": _cmd_regress, "transfer": _cmd_transfer, "pooled": _cmd_pooled,
    "ingest": _cmd_ingest, "mu": _cmd_mu, "ode": _cmd_ode,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
