import numpy as np
import pytest

from eqgrow.cli import main
from eqgrow.ingest import CommitRecord, LogParseError, monthly_series, parse_log
from eqgrow.report import read_series_csv


def format_log(records: list[CommitRecord]) -> str:
    """Inverse of parse_log: the history text of the records, for fixtures
    and round-trip checks."""
    chunks = []
    for i, rec in enumerate(records):
        lines = [f"commit {i:07x} {rec.month}-01T00:00:00+00:00"]
        lines += [f"A\t{p}" for p in rec.added_paths]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


SAMPLE = """\
commit abc 2021-05-03T10:00:00+00:00
A\tMathlib/Algebra/Basic.lean
M\tREADME.md

commit def 2021-05-20T09:30:00+02:00
A\tMathlib/Order/Lattice.lean
A\tdocs/notes.md

commit ghi 2021-07-01T00:00:00+00:00
M\tMathlib/Algebra/Basic.lean
"""


def test_empty_stream():
    assert parse_log("") == []


def test_single_record_parse():
    records = parse_log("commit abc 2021-05-03T10:00:00+00:00\n"
                        "A\tMathlib/Algebra/Basic.lean\n")
    assert len(records) == 1
    assert records[0].month == "2021-05"
    assert records[0].added_paths == ["Mathlib/Algebra/Basic.lean"]


def test_modified_only_record_has_no_added_paths():
    records = parse_log("commit abc 2021-05-03T10:00:00+00:00\nM\tfoo.py\n")
    assert records[0].added_paths == []


def test_malformed_commit_line_reports_line_number():
    with pytest.raises(LogParseError, match="line 1"):
        parse_log("commit onlyhash\n")


def test_bad_date_reports_line_number():
    with pytest.raises(LogParseError, match="line 3"):
        parse_log("commit a 2021-05-03T00:00:00+00:00\n\ncommit b not-a-date\n")


def test_zulu_timestamps_accepted():
    records = parse_log("commit a 2021-05-03T10:00:00Z\n")
    assert records[0].month == "2021-05"


def test_monthly_gap_filling():
    records = parse_log(SAMPLE)
    series = monthly_series(records, mode="commits")
    assert series.months == ["2021-05", "2021-06", "2021-07"]
    assert series.increments == [2, 0, 1]
    assert series.cumulative == [2, 2, 3]


def test_new_files_with_tree_glob():
    records = parse_log(SAMPLE)
    series = monthly_series(records, mode="new_files", glob="Mathlib/**/*.lean")
    assert series.increments == [2, 0, 0]


def test_new_files_single_segment_glob_not_recursive():
    records = parse_log(SAMPLE)
    series = monthly_series(records, mode="new_files", glob="Mathlib/*.lean")
    assert series.increments == [0, 0, 0]


def test_glob_semantics():
    cases = [
        ("Mathlib/**/*.lean", "Mathlib/A/B/C.lean", True),
        ("Mathlib/**/*.lean", "Mathlib/Top.lean", True),
        ("Mathlib/*.lean", "Mathlib/A/B.lean", False),
        ("Mathlib/*.lean", "Mathlib/Top.lean", True),
        ("Mathlib/**/*.lean", "Other/Top.lean", False),
        ("**/*.py", "a/b/c.py", True),
        ("*.py", "c.py", True),
    ]
    for pattern, path, matches in cases:
        records = [CommitRecord("2021-05", [path])]
        series = monthly_series(records, mode="new_files", glob=pattern)
        assert series.increments == [int(matches)], (pattern, path)


def test_permutation_invariance():
    records = parse_log(SAMPLE)
    swapped = list(reversed(records))
    a = monthly_series(records, mode="commits")
    b = monthly_series(swapped, mode="commits")
    assert a.months == b.months and a.cumulative == b.cumulative


def test_printer_parse_roundtrip():
    records = [
        CommitRecord("2020-01", ["x/y.lean"]),
        CommitRecord("2020-03", []),
        CommitRecord("2020-03", ["a.v", "b/c.v"]),
    ]
    assert parse_log(format_log(records)) == records


def test_growth_series_conversion_and_csv(tmp_path, capsys):
    log = tmp_path / "history.log"
    log.write_text(SAMPLE)
    path = tmp_path / "monthly.csv"
    assert main(["ingest", str(log), "--mode", "commits", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "month,t,n"
    assert lines[1] == "2021-05,1,2"
    growth = read_series_csv(path)
    assert list(growth.t) == [1.0, 2.0, 3.0]
    assert list(growth.n) == [2.0, 2.0, 3.0]


def synthesize_history(months=60, start=(2021, 5), total=56_954, seed=0):
    """Deterministic synthetic history at the scale of a large library."""
    rng = np.random.default_rng(seed)
    weights = rng.random(months) + 0.2
    counts = np.floor(weights / weights.sum() * total).astype(int)
    counts[-1] += total - counts.sum()
    records = []
    year, month = start
    serial = 0
    for i in range(months):
        stamp = f"{year:04d}-{month:02d}"
        for _ in range(int(counts[i])):
            records.append(CommitRecord(
                stamp, [f"Mathlib/M{serial % 97}/F{serial}.lean"]))
            serial += 1
        month += 1
        if month > 12:
            year, month = year + 1, 1
    return records


def test_large_scale_fixture_totals():
    records = synthesize_history()
    text = format_log(records)
    reparsed = parse_log(text.splitlines())
    series = monthly_series(reparsed, mode="commits")
    assert len(series.months) == 60
    assert series.months[0] == "2021-05"
    assert series.months[-1] == "2026-04"
    assert series.cumulative[-1] == 56_954
    files = monthly_series(reparsed, mode="new_files", glob="Mathlib/**/*.lean")
    assert files.cumulative[-1] == 56_954
