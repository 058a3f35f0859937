"""CSV, text-table, and SVG emission for analysis reports.

This module is the one owner of the CSV format: every table the CLI
writes goes through write_csv, and every table it reads through read_csv.
Every writer formats numbers with a fixed precision so identical inputs
produce byte-identical files, with LF line ends.
"""

from __future__ import annotations

import csv
import json
import math

from .growth import FitResult, GrowthSeries
from .sweep import ROW_FIELDS, AnalysisReport

EXPONENT_COLUMNS = ROW_FIELDS + ("b", "degenerate")
EXPONENT_TYPES = {"depth": int, "batch_size": int, "seed": int, "b": float}
DOMAIN_COLUMNS = ("domain", "n", "mean_b", "max_b", "count_b_gt_1",
                  "frac_b_lt_0.1")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def render_table(header, rows) -> str:
    cells = [list(map(str, header))] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def write_exponents_csv(path, report: AnalysisReport):
    rows = [[r[c] for c in EXPONENT_COLUMNS] for r in report.exponents]
    write_csv(path, EXPONENT_COLUMNS, rows)


def read_csv(path, columns: dict) -> list[dict]:
    """The rows of a CSV table as {column: value} over the columns named
    by ``columns``, each cell converted by the column's function there.
    The header may name other columns too.  A requested column missing
    from the header raises ValueError naming the file; a row with a missing
    or an extra cell, or a cell that does not convert, one naming
    ``path:line``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns {', '.join(missing)}")
        rows = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if None in row:
                raise ValueError(f"{where}: extra cell")
            if None in row.values():
                raise ValueError(f"{where}: missing cell")
            try:
                rows.append({c: convert(row[c]) for c, convert in columns.items()})
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows


def read_series_csv(path) -> GrowthSeries:
    """A growth series from a table with columns t and n."""
    rows = read_csv(path, {"t": float, "n": float})
    return GrowthSeries([r["t"] for r in rows], [r["n"] for r in rows])


def read_exponents_csv(path) -> list[dict]:
    """The rows of an exponent table, with its numeric grid fields and b
    converted; a table without rows raises ValueError naming the file."""
    rows = read_csv(path, {c: EXPONENT_TYPES.get(c, str) for c in EXPONENT_COLUMNS})
    if not rows:
        raise ValueError(f"{path}: empty exponent table")
    return rows


FIT_CSV_HEADER = ["model", "params", "rss", "r2", "log_r2", "aic", "bic",
                  "converged", "degenerate"]


def fit_csv_row(fit: FitResult) -> list[str]:
    return [
        fit.model,
        json.dumps({k: round(v, 10) for k, v in fit.params.items()},
                   sort_keys=True),
        format(fit.rss, ".10g"),
        format(fit.r2, ".10g"),
        "" if fit.log_r2 is None else format(fit.log_r2, ".10g"),
        format(fit.aic, ".10g"),
        format(fit.bic, ".10g"),
        str(int(fit.converged)),
        str(int(fit.degenerate)),
    ]


def write_domain_table_csv(path, report: AnalysisReport):
    rows = [[t[c] for c in DOMAIN_COLUMNS] for t in report.domain_table]
    write_csv(path, DOMAIN_COLUMNS, rows)


def _winner_rows(report: AnalysisReport, label) -> list[list]:
    return [[label(w)] + [report.window_winners[w].get(m, 0)
                          for m in report.models]
            for w in sorted(report.window_winners)]


def write_window_winners_csv(path, report: AnalysisReport):
    write_csv(path, ("window",) + tuple(report.models),
              _winner_rows(report, int))


def write_histogram_csv(path, report: AnalysisReport):
    header = ("domain", "lo", "hi", "count")
    rows = [[h[c] for c in header] for h in report.histogram]
    write_csv(path, header, rows)


def domain_table_text(report: AnalysisReport) -> str:
    rows = [[round(v, 3) if isinstance(v, float) else v
             for v in (t[c] for c in DOMAIN_COLUMNS)]
            for t in report.domain_table]
    return render_table(DOMAIN_COLUMNS, rows)


def window_winners_text(report: AnalysisReport) -> str:
    return render_table(("window",) + tuple(report.models),
                        _winner_rows(report, "<= {}".format))


# ---------------------------------------------------------------------------
# Minimal deterministic SVG plots
# ---------------------------------------------------------------------------

SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 480, 48
SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def svg_line_plot(path, named_series):
    """One polyline per (name, xs, ys) triple on log-log axes, with axis
    frame, title and labels; every value must be positive."""
    def tx(vals):
        return [math.log10(v) for v in vals]

    all_x = [v for _, xs, _ in named_series for v in tx(xs)]
    all_y = [v for _, _, ys in named_series for v in tx(ys)]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" '
        f'width="{SVG_WIDTH - 2 * SVG_MARGIN}" height="{SVG_HEIGHT - 2 * SVG_MARGIN}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{SVG_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-size="14">trajectories (log-log)</text>',
    ]
    for i, (name, xs, ys) in enumerate(named_series):
        px = _scale(tx(xs), x_lo, x_hi, SVG_MARGIN, SVG_WIDTH - SVG_MARGIN)
        py = _scale(tx(ys), y_lo, y_hi, SVG_HEIGHT - SVG_MARGIN, SVG_MARGIN)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        color = SVG_COLORS[i % len(SVG_COLORS)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"><title>{name}</title></polyline>')
    parts.append(f'<text x="{SVG_MARGIN}" y="{SVG_HEIGHT - 12}" font-size="11">'
                 f'{x_lo:.3g} .. {x_hi:.3g}</text>')
    parts.append(f'<text x="8" y="{SVG_MARGIN}" font-size="11">'
                 f'{y_lo:.3g} .. {y_hi:.3g}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
