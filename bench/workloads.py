"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed, runs rounds of
the same operations through eqgrow's public functions, and checks the
outputs of a round against the oracles in ``oracles.py``.  Functions are
always looked up on their module (``sweep.run_sweep``), so a traced round
sees the calls the benchmark makes as well as those the package makes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from eqgrow import closure, engine, growth, ingest, regression, sweep, terms

import oracles


@dataclass
class Round:
    """What one round produced, and its stage figures (untraced units)."""

    outputs: object
    digest: str                     # sha256 of the outputs, for determinism
    rules: int = 0                  # rules committed by discovery runs
    stages: dict = field(default_factory=dict)
    select_ms: list = field(default_factory=list)  # per-series latencies


@dataclass
class Verdict:
    attempted: int                  # operations checked in one round
    failed: int
    problems: list                  # failed correctness checks
    notes: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def close(got: float, want: float, rel: float, floor: float = 0.0) -> bool:
    return abs(got - want) <= rel * max(abs(want), floor)


def fit_problems(fit, t, n, label: str) -> list[str]:
    """A fit's rss against the model formula at the fit's own parameters,
    and its AIC against n ln(rss/n) + 2p.

    rss gets a relative tolerance of 1e-6: with a huge scale parameter the
    formula is ill-conditioned (stretched_exp's 1 - exp(-g) at tiny g) and
    two correct evaluations differ far beyond machine precision.
    """
    if not fit.converged:
        return [] if fit.aic == math.inf else [f"{label}: unconverged fit has finite AIC"]
    want = oracles.rss(fit.model, fit.params, t, n)
    scale = math.fsum(float(v) ** 2 for v in n)
    if not close(fit.rss, want, 1e-6, 1e-12 * scale):
        return [f"{label}: {fit.model} rss {fit.rss!r} != recomputed {want!r}"]
    # The program floors rss at 1e-12 inside AIC; compare where it cannot bite.
    if fit.rss > 1e-12:
        want_aic = oracles.aic(fit.rss, len(t), len(fit.params))
        if not close(fit.aic, want_aic, 1e-9, 1.0):
            return [f"{label}: {fit.model} AIC {fit.aic!r} != recomputed {want_aic!r}"]
    return []


def ranking_problems(fits, label: str) -> list[str]:
    keys = [(2 if not f.converged else (1 if f.degenerate else 0), f.aic)
            for f in fits]
    return [] if keys == sorted(keys) else [f"{label}: fits out of rank order"]


# ---------------------------------------------------------------------------
# discover_long
# ---------------------------------------------------------------------------

class DiscoverLong:
    """The long-range architecture (list/compositional/any/depth 2/batch 80)
    at fixed engine seeds.  Seed 0 runs 160 epochs, passes 1,000 rules at
    epoch 113 and ends with 1,395, so normalize's rewrite path dominates.

    The configurations do not depend on the benchmark seed: the rules that
    fail the soundness audit are then the same in every run, which keeps
    the failed share of operations fixed.
    """

    name = "discover_long"
    RUNS = ((0, 160), (1, 80), (2, 80))          # (engine seed, epochs)
    ARCH = dict(domain="list", generator="compositional", filter="any",
                depth=2, batch_size=80)
    PREFIX_EPOCHS = 60
    AUDIT_SEED, AUDIT_ENVS = 2026, 256

    def __init__(self, seed: int, out_dir, workers: int):
        self.configs = [engine.ArchConfig(seed=s, epochs=e, **self.ARCH)
                        for s, e in self.RUNS]

    def warm_up(self):
        engine.run_discovery(replace(self.configs[0], epochs=20))

    def run_round(self, in_process: bool) -> Round:
        start = time.perf_counter()
        results = [engine.run_discovery(c) for c in self.configs]
        wall = time.perf_counter() - start
        candidates = sum(c.epochs * c.batch_size for c in self.configs)
        outputs = [(c, list(r.trajectory.sizes),
                    [(rule.lhs.text, rule.rhs.text) for rule in r.rules])
                   for c, r in zip(self.configs, results)]
        return Round(outputs=outputs,
                     digest=sha256([[s, rules] for _, s, rules in outputs]),
                     rules=sum(len(r.rules) for r in results),
                     stages={"candidates_per_s": candidates / wall})

    def verify(self, outputs) -> Verdict:
        problems, unsound = [], []
        attempted = 0
        envs = oracles.Environments(self.AUDIT_SEED, self.AUDIT_ENVS)
        for config, sizes, rules in outputs:
            label = f"list seed {config.seed}"
            if len(sizes) != config.epochs:
                problems.append(f"{label}: {len(sizes)} sizes for {config.epochs} epochs")
            if any(b < a for a, b in zip(sizes, sizes[1:])):
                problems.append(f"{label}: sizes decrease")
            if sizes and sizes[-1] != len(rules):
                problems.append(f"{label}: last size {sizes[-1]} != {len(rules)} rules")
            if len(set(rules)) != len(rules):
                problems.append(f"{label}: duplicate rules")
            for lhs, rhs in rules:
                attempted += 1
                problems += [f"{label}: {lhs} => {rhs}: {p}"
                             for p in oracles.rule_shape_problems(lhs, rhs, "list")]
                if not oracles.rule_sound(lhs, rhs, "list", envs):
                    unsound.append(f"{label}: {lhs} => {rhs}")
        first = self.configs[0]
        rerun = engine.run_discovery(replace(first, epochs=self.PREFIX_EPOCHS))
        if rerun.trajectory.sizes != outputs[0][1][:self.PREFIX_EPOCHS]:
            problems.append(f"seed {first.seed}: a {self.PREFIX_EPOCHS}-epoch rerun "
                            "does not reproduce the size prefix")
        notes = [f"unsound committed rule: {u}" for u in unsound]
        return Verdict(attempted, len(unsound), problems, notes,
                       {"discover_long.sizes": sha256([s for _, s, _ in outputs])})


# ---------------------------------------------------------------------------
# sweep_grid
# ---------------------------------------------------------------------------

class SweepGrid:
    """A slice of the short-range grid: 3 domains x 4 generators x 2 filters
    x depths {2, 3} x batch size 40 x engine seeds {2s, 2s + 1} for
    benchmark seed s, at 30 epochs: 96 configurations.  Then analyze at
    window 30 and the paper's regression protocol."""

    name = "sweep_grid"
    DEPTHS, BATCH_SIZES, EPOCHS, WINDOW = (2, 3), (40,), 30, 30
    FOLDS, SHUFFLE_SEED = 5, 0

    def __init__(self, seed: int, out_dir, workers: int):
        self.path = out_dir / f"sweep_grid-{os.getpid()}.jsonl"
        self.workers = workers
        self.plan_fields = dict(
            domains=("arith", "bool", "list"), generators=engine.GENERATORS,
            filters=engine.FILTERS, depths=self.DEPTHS,
            batch_sizes=self.BATCH_SIZES, seeds=(2 * seed, 2 * seed + 1),
            epochs=self.EPOCHS)

    def plan(self, in_process: bool):
        return sweep.SweepPlan(**self.plan_fields,
                               workers=1 if in_process else self.workers)

    def warm_up(self):
        config = self.plan(True).configs()[0]
        record = engine.trajectory_record(engine.run_discovery(config).trajectory)
        sweep.analyze([record], windows=(self.WINDOW,), models=growth.DEFAULT_MODELS)
        regression.fit_gbm(np.arange(10.0)[:, None], np.arange(10.0), n_stages=5)

    @staticmethod
    def protocol(rows):
        """Within arith+bool, within list, transfer arith+bool -> list, pooled."""
        flat = [r for r in rows if r["domain"] in ("arith", "bool")]
        lists = [r for r in rows if r["domain"] == "list"]
        y_flat = np.array([r["b"] for r in flat])
        y_list = np.array([r["b"] for r in lists])
        y_all = np.array([r["b"] for r in rows])
        x_flat = regression.build_features(flat)
        x_list = regression.build_features(lists)
        return {
            "within_flat": (regression.kfold_cv(x_flat, y_flat), y_flat),
            "within_list": (regression.kfold_cv(x_list, y_list), y_list),
            "transfer": (regression.transfer_eval(x_flat, y_flat, x_list, y_list), y_list),
            "pooled": (regression.pooled_eval(rows, y_all), y_all),
        }

    def run_round(self, in_process: bool) -> Round:
        plan = self.plan(in_process)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        records = sweep.run_sweep(plan, self.path)
        t1 = time.perf_counter()
        report = sweep.analyze(records, windows=(self.WINDOW,),
                               models=growth.DEFAULT_MODELS)
        t2 = time.perf_counter()
        evals = self.protocol(report.exponents)
        t3 = time.perf_counter()
        jsonl = self.path.read_bytes()
        self.path.unlink()
        candidates = sum(c.epochs * c.batch_size for c in plan.configs())
        digest = sha256([sha256(jsonl), report.exponents,
                         {w: dict(c) for w, c in report.window_winners.items()},
                         {k: ev.predictions.tolist() for k, (ev, _) in evals.items()}])
        return Round(outputs=(plan, records, report, evals, jsonl), digest=digest,
                     rules=sum(r["sizes"][-1] for r in records if r.get("sizes")),
                     stages={"candidates_per_s": candidates / (t1 - t0),
                             "analyze_s": t2 - t1, "regress_s": t3 - t2})

    def verify(self, outputs) -> Verdict:
        plan, records, report, evals, jsonl = outputs
        problems = []
        planned = [c.key() for c in plan.configs()]
        keys = [tuple(r[k] for k in ("domain", "generator", "filter", "depth",
                                     "batch_size", "seed", "epochs")) for r in records]
        if sorted(keys) != sorted(planned):
            problems.append(f"{len(records)} records for {len(planned)} planned configs")
        errors = [r for r in records if "error" in r]
        for r in records:
            if "error" not in r and len(r["sizes"]) != r["epochs"]:
                problems.append(f"{r['domain']}/{r['generator']}: wrong trajectory length")

        good = [r for r in records if "error" not in r]
        winners = {}
        for rec, row in zip(good, report.exponents):
            label = f"{rec['domain']}/{rec['generator']}/{rec['filter']}/d{rec['depth']}"
            want_b = oracles.loglog_slope(rec["sizes"])
            if abs(row["b"] - want_b) > 1e-9:
                problems.append(f"{label}: b {row['b']!r} != OLS {want_b!r}")
            series = growth.series_from_sizes(rec["sizes"]).prefix(self.WINDOW)
            fits = growth.select_model(series, growth.DEFAULT_MODELS)
            for fit in fits:
                problems += fit_problems(fit, series.t, series.n, label)
            problems += ranking_problems(fits, label)
            winners[fits[0].model] = winners.get(fits[0].model, 0) + 1
        if winners != dict(report.window_winners.get(self.WINDOW, {})):
            problems.append(f"AIC winners {dict(report.window_winners)} != {winners}")

        for name, (ev, y) in evals.items():
            pred = ev.predictions.tolist()
            if name == "transfer":
                want = oracles.r2(y.tolist(), pred)
            else:
                want = math.fsum(oracles.r2([y[i] for i in part], [pred[i] for i in part])
                                 for part in self.folds(len(y))) / self.FOLDS
            if abs(ev.r2_mean - want) > 1e-9:
                problems.append(f"{name}: R2 {ev.r2_mean!r} != recomputed {want!r}")
        return Verdict(len(planned) + len(report.exponents) + len(evals),
                       len(errors), problems,
                       [f"error record: {r['error']}" for r in errors],
                       {"sweep_grid.jsonl": sha256(jsonl)})

    def folds(self, n: int):
        """The shuffled fold partition kfold_cv documents (Philox, seed 0)."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.SHUFFLE_SEED)))
        return np.array_split(rng.permutation(n), self.FOLDS)


# ---------------------------------------------------------------------------
# growth_toolkit
# ---------------------------------------------------------------------------

BASE_PARAMS = {
    "power_law": {"a": 2.0, "b": 0.7},
    "saturating_pl": {"a": 5.0, "k": 0.9, "mu": 0.01},
    "stretched_exp": {"a": 120.0, "tau": 35.0, "beta": 1.4},
    "linear": {"a": 30.0, "b": 2.0},
    "log_normal": {"a": 900.0, "m": 3.0, "s": 0.8},
}


class GrowthToolkit:
    """Engine-free: model selection, bootstrap, forecasting, coverage, the
    closure ODE and history ingest, on inputs generated from the seed."""

    name = "growth_toolkit"
    NOISY, CLEAN, SERIES_LEN, NOISE = 20, 2, 60, 0.01     # per family
    BOOT_SERIES, RESAMPLES = 2, 500
    OOS_PAIRS, OOS_LEN, OOS_SPLIT = 7, 500, 100
    PATTERNS, COVERAGE_DEPTH = 8, 3                       # per domain
    ODE_RUNS, ODE_T_END, ODE_DT = 3, 100.0, 0.01
    COMMITS, GLOB = 30_000, "Mathlib/**/*.lean"

    def __init__(self, seed: int, out_dir, workers: int):
        rng = np.random.default_rng([seed, 3])
        t = np.arange(1, self.SERIES_LEN + 1, dtype=float)
        self.series = []
        for family, base in BASE_PARAMS.items():
            for i in range(self.NOISY + self.CLEAN):
                params = {k: v * float(rng.uniform(0.8, 1.25)) for k, v in base.items()}
                clean = growth.predict(family, params, t)
                noisy = i < self.NOISY
                if noisy:
                    clean = np.clip(clean * (1 + self.NOISE * rng.standard_normal(len(t))), 0, None)
                self.series.append((family, params, noisy, growth.GrowthSeries(t, clean)))
        t200 = np.arange(1, 201, dtype=float)
        self.boot = [growth.GrowthSeries(t200, np.clip(
            growth.predict("saturating_pl", BASE_PARAMS["saturating_pl"], t200)
            * (1 + self.NOISE * rng.standard_normal(200)), 0, None))
            for _ in range(self.BOOT_SERIES)]
        t500 = np.arange(1, self.OOS_LEN + 1, dtype=float)
        sat = growth.predict("saturating_pl", {"a": 5.0, "k": 0.9, "mu": 0.004}, t500)
        pure = growth.predict("power_law", {"a": 2.0, "b": 0.9}, t500)
        self.oos = [(growth.GrowthSeries(t500, np.clip(sat * (1 + 0.005 * rng.standard_normal(500)), 0, None)),
                     growth.GrowthSeries(t500, np.clip(pure * (1 + 0.01 * rng.standard_normal(500)), 0, None)))
                    for _ in range(self.OOS_PAIRS)]
        self.patterns = {d: [random_pattern(rng, d, self.COVERAGE_DEPTH)
                             for _ in range(self.PATTERNS)] for d in ("arith", "bool")}
        self.pattern_terms = {d: [terms.parse_term(terms.SUBSTRATES[d], p) for p in ps]
                              for d, ps in self.patterns.items()}
        self.ode = [closure.ClosureParams(float(rng.uniform(0.5, 2.0)),
                                          float(rng.uniform(0.1, 0.7)), 0.0)
                    for _ in range(self.ODE_RUNS)]
        commits = oracles.history_commits(seed, self.COMMITS)
        self.history = oracles.render_history(commits)
        self.warm_history = oracles.render_history(commits[:200])
        self.tallies = oracles.history_tallies(commits)

    def warm_up(self):
        growth.select_model(self.series[0][3], growth.MODELS)
        closure.estimate_mu(self.pattern_terms["arith"][:1], terms.ARITH, 2)
        ingest.monthly_series(ingest.parse_log(self.warm_history), "commits")

    def run_round(self, in_process: bool) -> Round:
        clock = time.perf_counter
        select_ms, fits = [], []
        for _, _, _, s in self.series:
            t0 = clock()
            fits.append(growth.select_model(s, growth.MODELS))
            select_ms.append(1000.0 * (clock() - t0))
        t0 = clock()
        boots = [growth.bootstrap_ci("saturating_pl", s, self.RESAMPLES, seed=i)
                 for i, s in enumerate(self.boot)]
        t1 = clock()
        forecasts = [(growth.oos_forecast(sat, self.OOS_SPLIT, growth.DEFAULT_MODELS),
                      growth.oos_forecast(pure, self.OOS_SPLIT, growth.DEFAULT_MODELS))
                     for sat, pure in self.oos]
        t2 = clock()
        coverage = {d: closure.estimate_mu(ts, terms.SUBSTRATES[d], self.COVERAGE_DEPTH)
                    for d, ts in self.pattern_terms.items()}
        t3 = clock()
        odes = [closure.simulate_ode(p, self.ODE_T_END, self.ODE_DT) for p in self.ode]
        t4 = clock()
        records = ingest.parse_log(self.history)
        monthly = (ingest.monthly_series(records, "commits"),
                   ingest.monthly_series(records, "new_files", self.GLOB))
        t5 = clock()
        outputs = (fits, boots, forecasts, coverage, odes, monthly)
        digest = sha256([
            [[(f.model, f.params, f.rss, f.aic) for f in fs] for fs in fits],
            [b.intervals for b in boots],
            [[(r.model, r.rmse_oos) for r in pair[0] + pair[1]] for pair in forecasts],
            {d: r.fractions for d, r in coverage.items()},
            [o.n.tolist() for o in odes],
            [m.increments for m in monthly]])
        return Round(outputs=outputs, digest=digest,
                     stages={"resamples_per_s": self.BOOT_SERIES * self.RESAMPLES / (t1 - t0),
                             "coverage_s": t3 - t2,
                             "ingest_commits_per_s": self.COMMITS / (t5 - t4)},
                     select_ms=select_ms)

    def verify(self, outputs) -> Verdict:
        fits, boots, forecasts, coverage, odes, monthly = outputs
        problems = []
        for (family, params, noisy, s), ranked in zip(self.series, fits):
            label = f"{family} {'noisy' if noisy else 'noise-free'} {params}"
            for fit in ranked:
                problems += fit_problems(fit, s.t, s.n, label)
            problems += ranking_problems(ranked, label)
            if not noisy:
                own = next(f for f in ranked if f.model == family)
                if not own.converged or any(
                        not close(own.params[k], v, 1e-3) for k, v in params.items()):
                    problems.append(f"{label}: recovered {own.params}")
        for i, b in enumerate(boots):
            for name, (lo, hi, _) in b.intervals.items():
                if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                    problems.append(f"bootstrap {i}: {name} interval ({lo}, {hi})")
        sat_wins = pure_wins = 0
        for sat, pure in forecasts:
            rm = {r.model: r.rmse_oos for r in sat}
            sat_wins += rm["saturating_pl"] < rm["power_law"]
            rm = {r.model: r.rmse_oos for r in pure}
            pure_wins += rm["power_law"] < rm["saturating_pl"]
        # Either direction can lose a single forecast to noise; a majority
        # of the pairs must go the way the generating law says.
        majority = self.OOS_PAIRS // 2 + 1
        if sat_wins < majority or pure_wins < majority:
            problems.append(f"out of sample: saturating_pl won {sat_wins}/{self.OOS_PAIRS} "
                            f"saturated series, power_law won {pure_wins}/{self.OOS_PAIRS} pure")
        for domain, report in coverage.items():
            sort = terms.SUBSTRATES[domain].principal_sorts[0]
            total = oracles.count_terms(domain, sort, self.COVERAGE_DEPTH)
            want = [oracles.root_coverage(p, domain, self.COVERAGE_DEPTH) / total
                    for p in self.patterns[domain]]
            if report.fractions != want or report.space_size != total:
                problems.append(f"{domain} coverage {report.fractions} (space "
                                f"{report.space_size}) != counts {want} (space {total})")
        for p, series in zip(self.ode, odes):
            for t, n in zip(series.t, series.n):
                want = oracles.closed_form_mu0(p.throughput, p.exponent, t)
                if t >= 10 and not close(n, want, 1e-3):
                    problems.append(f"ODE {p}: S({t}) = {n} vs closed form {want}")
                    break
        months, commits, new_files = self.tallies
        for got, want, label in ((monthly[0], commits, "commits"),
                                 (monthly[1], new_files, "new files")):
            cumulative = list(itertools.accumulate(want))
            if got.months != months or got.increments != want or got.cumulative != cumulative:
                problems.append(f"monthly {label} differ from the generator's tallies")
        attempted = (len(self.series) + len(boots) + 2 * len(forecasts)
                     + sum(len(r.fractions) for r in coverage.values())
                     + len(odes) + len(monthly))
        return Verdict(attempted, 0, problems)


def random_pattern(rng, domain: str, depth: int) -> str:
    """A left-hand-side pattern of depth <= ``depth`` rooted at an operator,
    over pattern variables A-C (repeats make it nonlinear) and constants."""
    grammar = oracles.GRAMMARS[domain]
    ops = list(grammar["ops"])
    consts = list(grammar["consts"])

    def build(d: int, root: bool) -> str:
        if root or (d > 1 and rng.random() < 0.4):
            op = ops[int(rng.integers(len(ops)))]
            args = [build(d - 1, False) for _ in grammar["ops"][op][0]]
            return f"({op} {' '.join(args)})"
        if rng.random() < 0.7:
            return "ABC"[int(rng.integers(3))]
        return consts[int(rng.integers(len(consts)))]

    return build(depth, True)


WORKLOADS = {w.name: w for w in (DiscoverLong, SweepGrid, GrowthToolkit)}
