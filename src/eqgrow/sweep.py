"""Sweep execution over architecture grids and trajectory analysis.

A sweep plan is a cartesian product over domains, generators, filters,
depths, batch sizes, and seeds at a fixed epoch count.  Runs append one
JSON-lines trajectory record per configuration, flushed as it arrives, so a
killed sweep keeps every finished record; completed configurations are
skipped on rerun and failed ones retried, so interrupted sweeps resume
cleanly.  Configurations are
independent, so the pool of worker processes changes nothing observable.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .engine import (ArchConfig, ENGINE_VERSION, FILTERS, GENERATORS,
                     KEY_FIELDS, PRNG_ID, SWEEP_BATCH_SIZES, SWEEP_DEPTHS,
                     dump_rules, record_to_json, run_discovery,
                     trajectory_record)
from .growth import (DEFAULT_MODELS, fit_power_law, select_model,
                     series_from_sizes)

DEFAULT_WINDOWS = (30, 50, 100, 200, 300, 500)
DEGENERATE_B_THRESHOLD = 0.1
HISTOGRAM_STEP = 0.05


@dataclass
class SweepPlan:
    domains: tuple = ("arith", "bool", "list")
    generators: tuple = GENERATORS
    filters: tuple = FILTERS
    depths: tuple = SWEEP_DEPTHS
    batch_sizes: tuple = SWEEP_BATCH_SIZES
    seeds: tuple = (0, 1, 2, 3, 4)
    epochs: int = 30
    workers: int | None = None

    def configs(self) -> list[ArchConfig]:
        return [ArchConfig(*key, self.epochs) for key in itertools.product(
            self.domains, self.generators, self.filters, self.depths,
            self.batch_sizes, self.seeds)]


def short_range_plan(seeds=(0, 1, 2, 3, 4), epochs: int = 30) -> SweepPlan:
    """The full short-range architecture grid at 30 epochs."""
    return SweepPlan(seeds=tuple(seeds), epochs=epochs)


def long_range_plan(seeds=(0, 1, 2, 3, 4), epochs: int = 500) -> SweepPlan:
    """Five long list-domain trajectories at one architecture."""
    return SweepPlan(domains=("list",), generators=("compositional",),
                     filters=("any",), depths=(2,), batch_sizes=(80,),
                     seeds=tuple(seeds), epochs=epochs)


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


def read_sweep_file(path) -> list[dict]:
    """The records of a sweep file, or [] when there is none.

    A last line without its line break that does not parse is the torn
    tail of a killed write and is dropped, so its configuration reruns.
    A malformed line anywhere else, or a line that is not a JSON object,
    raises ValueError.
    """
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    records = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1 and not line.endswith("\n"):
                break
            raise ValueError(f"{path}: line {i + 1}: {exc.msg}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}: line {i + 1}: not a JSON object")
        records.append(record)
    return records


@contextlib.contextmanager
def _open_for_append(path):
    """Binary append handle whose first write starts a line of its own: a
    torn last line (see read_sweep_file) is cut, a whole one terminated."""
    with open(path, "a+b") as fh:
        fh.seek(0)
        data = fh.read()
        tail = data[data.rfind(b"\n") + 1:]
        if tail:
            try:
                json.loads(tail)
            except ValueError:
                fh.truncate(len(data) - len(tail))
            else:
                fh.write(b"\n")
        yield fh


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
    existing = {_record_key(r): r for r in read_sweep_file(out_path)}
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
        workers = plan.workers or os.cpu_count() or 1
        in_process = workers <= 1 or len(pending) == 1
        run = partial(_run_config, rules_dir=rules_dir)
        with _open_for_append(out_path) as fh, (
                contextlib.nullcontext() if in_process
                else ProcessPoolExecutor(max_workers=workers)) as pool:
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
    windows: tuple = ()
    models: tuple = ()


def trajectory_exponent(sizes) -> dict:
    """Log-log slope of a trajectory; flat/short trajectories flag b = 0."""
    series = series_from_sizes(sizes)
    fit = fit_power_law(series)
    return {"b": fit.params["b"], "a": fit.params["a"],
            "log_r2": fit.log_r2, "degenerate": fit.degenerate}


def analyze(records: list[dict], windows=DEFAULT_WINDOWS,
            models=DEFAULT_MODELS) -> AnalysisReport:
    """Per-trajectory exponents plus AIC winners at each window prefix."""
    good = [r for r in records if "error" not in r]
    if not good:
        raise ValueError("no trajectories to analyze")
    report = AnalysisReport(windows=tuple(windows), models=tuple(models))
    winners: dict[int, Counter] = {w: Counter() for w in windows}
    for rec in good:
        sizes = rec["sizes"]
        expo = trajectory_exponent(sizes)
        row = {k: rec[k] for k in ("domain", "generator", "filter", "depth",
                                   "batch_size", "seed")}
        row.update(b=expo["b"], log_r2=expo["log_r2"],
                   degenerate=int(expo["degenerate"]),
                   final_size=sizes[-1] if sizes else 0)
        report.exponents.append(row)
        series = series_from_sizes(sizes)
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
