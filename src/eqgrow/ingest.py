"""Version-control history exports to monthly cumulative growth series.

Input format, one record per commit:

    commit <hash> <ISO-8601 date>
    A\t<path>
    M\t<path>           (status lines other than A are ignored)

Blank lines between records are allowed.  A matching export comes from:

    git log --no-merges --reverse --date=iso-strict \
        --pretty=format:'commit %H %ad' --name-status

The month is taken from the author date's year and month.  Series are built
per month over a contiguous month axis (gap months carry zero increments),
counting either commits or newly added paths matching a glob.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime


class LogParseError(ValueError):
    """Malformed history export, with 1-based line number context."""


@dataclass
class CommitRecord:
    month: str                      # YYYY-MM
    added_paths: list[str] = field(default_factory=list)


def parse_log(stream) -> list[CommitRecord]:
    """Parse the documented export format from an iterable of lines."""
    if isinstance(stream, str):
        stream = stream.splitlines()
    records: list[CommitRecord] = []
    current: CommitRecord | None = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            current = None
            continue
        if line.startswith("commit "):
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise LogParseError(f"line {lineno}: malformed commit line: {line!r}")
            date_text = parts[2]
            try:
                stamp = datetime.fromisoformat(date_text.strip().replace("Z", "+00:00"))
            except ValueError:
                raise LogParseError(
                    f"line {lineno}: unparseable date {date_text!r}") from None
            current = CommitRecord(month=f"{stamp.year:04d}-{stamp.month:02d}")
            records.append(current)
            continue
        status, _, path = line.partition("\t")
        if current is None:
            raise LogParseError(f"line {lineno}: status line before any commit")
        if status == "A" and path:
            current.added_paths.append(path)
    return records


# ---------------------------------------------------------------------------
# Glob matching: * within a path segment, ** across segments
# ---------------------------------------------------------------------------

def _glob_regex(pattern: str) -> re.Pattern:
    parts = pattern.split("/")
    pieces = []
    for i, part in enumerate(parts):
        if part == "**":
            pieces.append("(?:[^/]+/)*" if i < len(parts) - 1 else "(?:[^/]+(?:/[^/]+)*)?")
            continue
        chunk = ""
        for ch in part:
            if ch == "*":
                chunk += "[^/]*"
            elif ch == "?":
                chunk += "[^/]"
            else:
                chunk += re.escape(ch)
        pieces.append(chunk + ("/" if i < len(parts) - 1 else ""))
    return re.compile("^" + "".join(pieces) + "$")


# ---------------------------------------------------------------------------
# Monthly aggregation
# ---------------------------------------------------------------------------

@dataclass
class MonthlySeries:
    months: list[str]
    increments: list[int]
    cumulative: list[int]


def _month_range(first: str, last: str) -> list[str]:
    y0, m0 = map(int, first.split("-"))
    y1, m1 = map(int, last.split("-"))
    months = []
    y, m = y0, m0
    while (y, m) <= (y1, m1):
        months.append(f"{y:04d}-{m:02d}")
        m += 1
        if m > 12:
            y, m = y + 1, 1
    return months


def monthly_series(records: list[CommitRecord], mode: str = "commits",
                   glob: str | None = None) -> MonthlySeries:
    """Aggregate commits (or added paths matching ``glob``) per month.

    Months between the first and last observed month appear contiguously,
    with zero increments where nothing happened.  A glob outside new_files
    mode raises ValueError, since only that mode reads paths.
    """
    if mode not in ("commits", "new_files"):
        raise ValueError(f"unknown mode {mode!r}")
    if glob is not None and mode != "new_files":
        raise ValueError(f"a glob applies only in new_files mode, not in {mode!r}")
    if not records:
        return MonthlySeries([], [], [])
    matcher = _glob_regex(glob) if glob else None
    counts: dict[str, int] = {}
    for rec in records:
        if mode == "commits":
            inc = 1
        else:
            paths = rec.added_paths
            if matcher is not None:
                inc = sum(1 for p in paths if matcher.match(p))
            else:
                inc = len(paths)
        counts[rec.month] = counts.get(rec.month, 0) + inc
    months = _month_range(min(counts), max(counts))
    increments = [counts.get(m, 0) for m in months]
    cumulative = []
    total = 0
    for inc in increments:
        total += inc
        cumulative.append(total)
    return MonthlySeries(months, increments, cumulative)
