"""Sweep execution over architecture grids and trajectory analysis.

A sweep plan is a cartesian product over domains, generators, filters,
depths, batch sizes, and seeds at a fixed epoch count.  Runs append one
JSON-lines trajectory record per configuration, flushed as it arrives, so a
killed sweep keeps every finished record; completed configurations are
skipped on rerun and failed ones retried, so interrupted sweeps resume
cleanly.  A rerun scans the file once: the same scan gives the records and
where the whole lines end, so a torn last line is cut before appending.
Configurations are independent, so the pool of worker processes changes
nothing observable.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .engine import (ArchConfig, ConfigError, DOMAINS, ENGINE_VERSION,
                     FILTERS, GENERATORS, KEY_FIELDS, PRNG_ID,
                     SWEEP_BATCH_SIZES, SWEEP_DEPTHS, dump_rules,
                     record_to_json, run_discovery, trajectory_record)
from .growth import (DEFAULT_MODELS, fit_power_law, select_model,
                     series_from_sizes)

DEFAULT_WINDOWS = (30, 50, 100, 200, 300, 500)
DEGENERATE_B_THRESHOLD = 0.1
HISTOGRAM_STEP = 0.05

# KEY_FIELDS without epochs: the grid point that keys an exponent row.
ROW_FIELDS = tuple(name for name in KEY_FIELDS if name != "epochs")
_AXES = ("domains", "generators", "filters", "depths", "batch_sizes", "seeds")
_INT_AXES = ("depths", "batch_sizes", "seeds")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class SweepPlan:
    """The default is the full short-range grid.  Axes are stored as
    tuples; a field of the wrong type raises ConfigError naming it, and
    axis values are checked by ArchConfig when configs() builds the grid."""

    domains: tuple = DOMAINS
    generators: tuple = GENERATORS
    filters: tuple = FILTERS
    depths: tuple = SWEEP_DEPTHS
    batch_sizes: tuple = SWEEP_BATCH_SIZES
    seeds: tuple = (0, 1, 2, 3, 4)
    epochs: int = 30
    workers: int | None = None

    def __post_init__(self):
        for name in _AXES:
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Sequence):
                raise ConfigError(f"{name} must be a list, got {value!r}")
            if name in _INT_AXES and not all(map(_is_int, value)):
                raise ConfigError(f"{name} must hold ints, got {value!r}")
            setattr(self, name, tuple(value))
        if not _is_int(self.epochs) or self.epochs < 0:
            raise ConfigError(f"epochs must be an int >= 0, got {self.epochs!r}")
        if self.workers is not None and not _is_int(self.workers):
            raise ConfigError(f"workers must be an int, got {self.workers!r}")

    def configs(self) -> list[ArchConfig]:
        return [ArchConfig(*key, self.epochs) for key in itertools.product(
            self.domains, self.generators, self.filters, self.depths,
            self.batch_sizes, self.seeds)]


def long_range_plan() -> SweepPlan:
    """Five long list-domain trajectories at one architecture."""
    return SweepPlan(domains=("list",), generators=("compositional",),
                     filters=("any",), depths=(2,), batch_sizes=(80,),
                     epochs=500)


def _rules_path(rules_dir, config: ArchConfig) -> str:
    """The rule file a sweep with ``rules_dir`` writes for one configuration."""
    return os.path.join(rules_dir, "_".join(map(str, config.key())) + ".rules")


def _run_config(config: ArchConfig, rules_dir=None) -> dict:
    """One configuration's record; its rule file is complete before it returns."""
    try:
        result = run_discovery(config)
    except Exception as exc:  # per-config failures must not abort the sweep
        return {**dict(zip(KEY_FIELDS, config.key())),
                "error": f"{type(exc).__name__}: {exc}"}
    if rules_dir is not None:
        dump_rules(_rules_path(rules_dir, config), result.rules)
    return trajectory_record(result.trajectory)


def _record_key(record: dict) -> tuple:
    return tuple(record[name] for name in KEY_FIELDS)


def _done(records: dict, config: ArchConfig) -> bool:
    """True when ``records`` (keyed by _record_key) holds a trajectory, not
    an error, for the configuration."""
    record = records.get(config.key())
    return record is not None and "error" not in record


def _scan_sweep(path, data: bytes) -> tuple[list[dict], int]:
    """The records in a sweep file's bytes, and the byte length of the
    lines that hold them.

    A last line without its line break that does not parse (or is blank)
    is the torn tail of a killed write: it is dropped, and left out of the
    length, so its configuration reruns.  A malformed line anywhere else,
    or a line that is not a JSON object, raises ValueError naming ``path``.
    """
    lines = data.split(b"\n")
    tail = lines[-1]  # the last piece, without a line break
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == len(lines):
                return records, len(data) - len(tail)
            raise ValueError(f"{path}: line {number}: {exc.msg}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}: line {number}: not a JSON object")
        records.append(record)
    return records, len(data) if tail.strip() else len(data) - len(tail)


def read_sweep_file(path) -> list[dict]:
    """The records of a sweep file (see _scan_sweep)."""
    with open(path, "rb") as fh:
        return _scan_sweep(path, fh.read())[0]


def run_sweep(plan: SweepPlan, out_path, progress=None,
              rules_dir=None) -> list[dict]:
    """Execute all pending plan configurations, appending to ``out_path``.

    Each record is appended and flushed as it arrives, in plan order, so a
    killed sweep resumes after its last whole record.  A configuration
    whose record is an error reruns, and its new record, appended, replaces
    the error record (the last record of a configuration counts).  With
    ``rules_dir``, each run also writes its rule file there, and a
    configuration missing one reruns without appending its record twice.
    A file holding records of another engine version or PRNG is not
    resumed (ValueError).  Returns every record of the plan (existing plus
    new), in plan order.
    """
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    found, whole = _scan_sweep(out_path, data)
    existing = {_record_key(r): r for r in found}
    configs = plan.configs()
    pending = [c for c in configs if not _done(existing, c)
               or (rules_dir is not None
                   and not os.path.exists(_rules_path(rules_dir, c)))]
    if pending:
        for r in existing.values():
            if "error" not in r and (r.get("engine_version"), r.get(
                    "prng_id")) != (ENGINE_VERSION, PRNG_ID):
                raise ValueError(
                    f"{out_path}: cannot resume records of "
                    f"{r.get('engine_version')} ({r.get('prng_id')}) with "
                    f"{ENGINE_VERSION} ({PRNG_ID})")
        if rules_dir is not None:
            os.makedirs(rules_dir, exist_ok=True)
        workers = min(plan.workers or os.cpu_count() or 1, len(pending))
        in_process = workers <= 1
        run = partial(_run_config, rules_dir=rules_dir)
        with open(out_path, "ab") as fh, (
                contextlib.nullcontext() if in_process
                else ProcessPoolExecutor(max_workers=workers)) as pool:
            # the first record starts a line of its own
            fh.truncate(whole)
            if whole and not data.endswith(b"\n", 0, whole):
                fh.write(b"\n")
            records = (map(run, pending) if in_process
                       else pool.map(run, pending, chunksize=4))
            for i, (config, record) in enumerate(zip(pending, records), 1):
                if not _done(existing, config):
                    fh.write((record_to_json(record) + "\n").encode("utf-8"))
                    fh.flush()
                    existing[config.key()] = record
                if progress:
                    progress(i, len(pending))
    return [existing[c.key()] for c in configs if c.key() in existing]


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    exponents: list[dict] = field(default_factory=list)
    domain_table: list[dict] = field(default_factory=list)
    window_winners: dict[int, Counter] = field(default_factory=dict)
    histogram: list[dict] = field(default_factory=list)
    models: tuple = ()


def analyze(records: list[dict], windows=DEFAULT_WINDOWS,
            models=DEFAULT_MODELS) -> AnalysisReport:
    """Per-trajectory exponents plus AIC winners at each window prefix.

    A window is a number of leading epochs, at least 1; a window longer
    than a trajectory skips it.
    """
    for w in windows:
        if w < 1:
            raise ValueError(f"window {w} is below 1")
    good = [r for r in records if "error" not in r]
    if not good:
        raise ValueError("no trajectories to analyze")
    report = AnalysisReport(models=tuple(models))
    winners: dict[int, Counter] = {w: Counter() for w in windows}
    for rec in good:
        sizes = rec["sizes"]
        series = series_from_sizes(sizes)
        # log-log slope; a flat or short trajectory is flagged with b = 0
        fit = fit_power_law(series)
        row = {k: rec[k] for k in ROW_FIELDS}
        row.update(b=fit.params["b"], degenerate=int(fit.degenerate))
        report.exponents.append(row)
        for w in windows:
            if w > len(sizes):
                continue
            ranked = select_model(series.prefix(w), models)
            winners[w][ranked[0].model] += 1
    report.window_winners = {w: c for w, c in winners.items() if c}

    for domain in sorted({r["domain"] for r in report.exponents}):
        bs = [r["b"] for r in report.exponents if r["domain"] == domain]
        report.domain_table.append({
            "domain": domain,
            "n": len(bs),
            "mean_b": float(np.mean(bs)),
            "max_b": float(np.max(bs)),
            "count_b_gt_1": int(sum(1 for b in bs if b > 1.0)),
            "frac_b_lt_0.1": float(np.mean([b < DEGENERATE_B_THRESHOLD
                                            for b in bs])),
        })
        lo = 0.0
        top = max(max(bs), 0.0) + HISTOGRAM_STEP
        while lo < top:
            hi = lo + HISTOGRAM_STEP
            count = sum(1 for b in bs if lo <= b < hi)
            if count:
                report.histogram.append({"domain": domain, "lo": round(lo, 4),
                                         "hi": round(hi, 4), "count": count})
            lo = hi
    return report
