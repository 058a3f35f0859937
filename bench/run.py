#!/usr/bin/env python3
"""eqgrow benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload discover_long --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 1

A run imports the package from ``src/``, times the set-up in fresh
processes, then repeats whole rounds of the workload until ``--seconds``
have passed, checks the outputs of a round against the oracles, and prints
one JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs one untraced reference round
and then traced rounds in a single process, and reports the per-layer
metrics.  Result files and span traces go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("discover_long", "sweep_grid", "growth_toolkit")
SETUP_REPEATS = 3
# Untraced stage figures; each workload has some of them, a traced run
# reports the rest as 0.
STAGES = ("candidates_per_s", "analyze_s", "regress_s", "select_ms_p50",
          "select_ms_p90", "resamples_per_s", "coverage_s",
          "ingest_commits_per_s")
CHILD_TIMEOUT_S = 170


def load_program():
    """Import eqgrow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import eqgrow
    except ImportError as exc:
        raise SystemExit(f"bench/run.py: cannot import eqgrow from {src}: {exc}")
    if not Path(eqgrow.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench/run.py: eqgrow imported from {eqgrow.__file__}, "
                         f"not from {src}")


def declared_metrics() -> tuple[dict, dict]:
    """name -> unit for the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak resident set."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import the package, build
    the workload's inputs and make one warm-up pass."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-probe",
                        "--workload", args.workload, "--seed", str(args.seed)],
                       check=True, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def stage_metrics(rounds) -> dict:
    """Stage figures as medians over rounds; latencies pooled over rounds."""
    out = {}
    for name in rounds[0].stages:
        out[name] = statistics.median(r.stages[name] for r in rounds)
    select = [ms for r in rounds for ms in r.select_ms]
    if select:
        out["select_ms_p50"] = statistics.median(select)
        out["select_ms_p90"] = percentile(select, 90)
        out["select_samples"] = len(select)
    return out


def run_workload(args) -> dict:
    import oracles
    import tracing
    from workloads import WORKLOADS

    e2e_units, layer_units = declared_metrics()
    OUT_DIR.mkdir(exist_ok=True)
    setup_s = measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR, nproc())
    problems = [f"oracle self-check: {p}" for p in oracles.self_check()]
    workload.warm_up()

    clock = time.perf_counter
    walls, rounds, layers, tracer = [], [], [], None
    start = clock()
    reference = None
    if args.trace:
        t0 = clock()
        reference = workload.run_round(in_process=True)
        reference_wall = clock() - t0
    while True:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        t0 = clock()
        try:
            rnd = workload.run_round(in_process=bool(args.trace))
        finally:
            if tracer:
                tracer.uninstall()
        walls.append(clock() - t0)
        rounds.append(rnd)
        if tracer:
            layers.append(tracer.layer_metrics(rnd.rules))
        if clock() - start >= args.seconds:
            break

    first = reference or rounds[0]
    verdict = workload.verify(first.outputs)
    problems += verdict.problems
    n_rounds = len(rounds) + (reference is not None)
    if any(r.digest != first.digest for r in rounds):
        problems.append("rounds of the same inputs gave different outputs")

    stages = stage_metrics([reference] if reference else rounds)
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(walls) - reference_wall
        metrics.update({name: stages.get(name, 0.0) for name in STAGES})
        tracer.write(OUT_DIR / f"{args.workload}-spans.jsonl")
        units = layer_units
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                   "round_s": statistics.median(walls)}
        units = e2e_units
    if set(metrics) != set(units):
        raise SystemExit(f"bench/run.py: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")

    result = {"correct": not problems,
              "attempted": verdict.attempted * n_rounds,
              "failed": verdict.failed * n_rounds,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "round_walls_s": walls, "stages": stages, "digests": verdict.digests,
              "problems": problems, "notes": verdict.notes, "result": result}
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print_report(report, layer_units)
    return result


def print_report(report, layer_units):
    result = report["result"]
    mode = "traced" if report["trace"] else "untraced"
    print(f"== {report['workload']}  seed {report['seed']}  {mode}  "
          f"{len(report['round_walls_s'])} rounds: "
          + " ".join(f"{w:.3f}" for w in report["round_walls_s"]) + " s")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not report["trace"]:
        for name, value in report["stages"].items():
            unit = layer_units.get(name, "count")
            print(f"  stage {name:34s} {value:>14.6g} {unit}")
    for name, digest in report["digests"].items():
        print(f"  sha256 {name:33s} {digest}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for line in report["notes"][:5]:
        print(f"  note: {line}")
    if len(report["notes"]) > 5:
        print(f"  note: ... {len(report['notes']) - 5} more in bench/out/")
    for line in report["problems"]:
        print(f"  PROBLEM: {line}")


def run_all(args) -> dict:
    """Every workload in its own process; metric names get the workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
    else:
        load_program()
        if args.setup_probe:
            from workloads import WORKLOADS
            WORKLOADS[args.workload](args.seed, OUT_DIR, nproc()).warm_up()
            return 0
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
