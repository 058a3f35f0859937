"""Acceptance suite: one test (or test group) per release criterion.

Each test prints a PASS line with the measured quantities so a full run
doubles as the acceptance report.  Statistical criteria use fixed seeds and
are deterministic.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from eqgrow.closure import (ClosureParams, estimate_mu, integrate_closure,
                            simulate_ode)
from eqgrow.engine import ArchConfig, run_discovery
from eqgrow.growth import (DEFAULT_MODELS, GrowthSeries, MODELS, bootstrap_ci,
                           fit_model, fit_power_law, oos_forecast, predict,
                           select_model, series_from_sizes)
from eqgrow.ingest import CommitRecord, monthly_series, parse_log
from eqgrow.regression import build_features, kfold_cv, pooled_eval, transfer_eval
from eqgrow.sweep import SweepPlan, analyze, long_range_plan, run_sweep
from eqgrow.terms import (ARITH, BOOL, BOOLDOM, INT, INTLIST, LIST,
                          count_terms, enumerate_terms, var)
import golden
from test_closure import closed_form_power
from test_ingest import format_log

T200 = np.arange(1, 201, dtype=float)

FAMILY_PARAMS = {
    "power_law": {"a": 2.0, "b": 0.7},
    "saturating_pl": {"a": 5.0, "k": 0.9, "mu": 0.01},
    "stretched_exp": {"a": 120.0, "tau": 35.0, "beta": 1.4},
    "linear": {"a": 30.0, "b": 2.0},
    "log_normal": {"a": 900.0, "m": 3.0, "s": 0.8},
}


def _noisy(model, params, t, seed, level=0.01):
    rng = np.random.default_rng(seed)
    clean = predict(model, params, t)
    return GrowthSeries(t, np.clip(clean * (1 + level * rng.standard_normal(len(t))), 0, None))


# ---------------------------------------------------------------------------
# 1. Fit recovery (exact)
# ---------------------------------------------------------------------------

def test_criterion_01_fit_recovery():
    worst_rel = 0.0
    worst_time = 0.0
    for family, params in FAMILY_PARAMS.items():
        series = GrowthSeries(T200, predict(family, params, T200))
        start = time.perf_counter()
        fit = fit_model(family, series)
        elapsed = time.perf_counter() - start
        assert fit.converged
        for name, value in params.items():
            rel = abs(fit.params[name] - value) / abs(value)
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-3, (family, name, fit.params)
        worst_time = max(worst_time, elapsed)
        assert elapsed < 1.0
    print(f"ACCEPTANCE 1 fit recovery: PASS "
          f"(worst rel err {worst_rel:.2e}, worst fit time {worst_time:.3f}s)")


# ---------------------------------------------------------------------------
# 2. AIC selection (statistical)
# ---------------------------------------------------------------------------

def test_criterion_02_aic_selection():
    start = time.perf_counter()
    wins = {}
    for family, params in FAMILY_PARAMS.items():
        clean = predict(family, params, T200)
        count = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            series = GrowthSeries(
                T200, np.clip(clean * (1 + 0.01 * rng.standard_normal(200)), 0, None))
            count += select_model(series, MODELS)[0].model == family
        wins[family] = count
    elapsed = time.perf_counter() - start
    for family, count in wins.items():
        assert count >= 90, wins
    assert elapsed < 60.0, f"{elapsed:.0f}s"
    print(f"ACCEPTANCE 2 AIC selection: PASS ({wins}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 3. ODE limits
# ---------------------------------------------------------------------------

def test_criterion_03_ode_limits():
    worst = 0.0
    for k in (0.0, 0.25, 0.5, 0.75):
        series = simulate_ode(ClosureParams(1.0, k, 0.0), 100, 0.01)
        exact = closed_form_power(1.0, k, 100.0)
        rel = abs(series.n[-1] - exact) / exact
        worst = max(worst, rel)
        assert rel < 1e-3, (k, rel)
    params = ClosureParams(1.0, 0.9, 0.0, n0=1.0)
    exact = closed_form_power(1.0, 0.9, 100.0, n0=1.0)
    err_coarse = abs(integrate_closure(params, [100.0], 0.25)[0] - exact)
    err_fine = abs(integrate_closure(params, [100.0], 0.125)[0] - exact)
    ratio = err_coarse / err_fine
    assert 10.0 < ratio < 22.0, ratio
    print(f"ACCEPTANCE 3 ODE limits: PASS "
          f"(worst rel err {worst:.2e} at t=100, halving ratio {ratio:.1f})")


# ---------------------------------------------------------------------------
# 4. OOS directionality (oracle)
# ---------------------------------------------------------------------------

def test_criterion_04_oos_directionality():
    start = time.perf_counter()
    t500 = np.arange(1, 501, dtype=float)
    saturated = _noisy("saturating_pl", {"a": 5.0, "k": 0.9, "mu": 0.004},
                       t500, seed=11, level=0.005)
    results = {r.model: r.rmse_oos
               for r in oos_forecast(saturated, 250,
                                     ("power_law", "saturating_pl"))}
    assert results["saturating_pl"] < results["power_law"], results

    pure = _noisy("power_law", {"a": 2.0, "b": 0.9}, t500, seed=12, level=0.01)
    results2 = {r.model: r.rmse_oos
                for r in oos_forecast(pure, 250,
                                      ("power_law", "saturating_pl"))}
    assert results2["power_law"] < results2["saturating_pl"], results2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 OOS directionality: PASS "
          f"(saturated {results['saturating_pl']:.1f} < {results['power_law']:.1f}; "
          f"pure {results2['power_law']:.2f} < {results2['saturating_pl']:.2f}; "
          f"{elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. Bootstrap coverage
# ---------------------------------------------------------------------------

def test_criterion_05_bootstrap_coverage():
    start = time.perf_counter()
    true = FAMILY_PARAMS["saturating_pl"]
    clean = predict("saturating_pl", true, T200)
    covered = 0
    for rep in range(100):
        rng = np.random.default_rng(7000 + rep)
        series = GrowthSeries(
            T200, np.clip(clean * (1 + 0.01 * rng.standard_normal(200)), 0, None))
        result = bootstrap_ci("saturating_pl", series, n_resamples=500,
                              seed=rep)
        lo, hi, _ = result.intervals["k"]
        covered += lo <= true["k"] <= hi
    elapsed = time.perf_counter() - start
    assert covered >= 90, covered
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 bootstrap coverage: PASS "
          f"({covered}/100 cover true k, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6. Enumeration / recurrence
# ---------------------------------------------------------------------------

def _enumerated_cardinality(spec, sort, depth):
    """Physically count depth-``depth`` terms: materialized leaves plus an
    exhaustive walk over every operator argument combination built on the
    materialized depth-(d-1) term lists."""
    if depth <= 3:
        return len(enumerate_terms(spec, sort, depth))
    lower = {s: enumerate_terms(spec, s, depth - 1)
             for s in {a for op in spec.operators for a in op.arg_sorts}}
    total = len(spec.leaves_by_sort.get(sort, ()))
    for op in spec.ops_by_result.get(sort, ()):
        total += sum(1 for _ in product(*(lower[s] for s in op.arg_sorts)))
    return total


def test_criterion_06_enumeration_recurrence():
    start = time.perf_counter()
    checks = 0
    for spec, sort, max_depth in ((BOOLDOM, BOOL, 4), (ARITH, INT, 4)):
        for depth in range(1, max_depth + 1):
            assert count_terms(spec, sort, depth) == \
                _enumerated_cardinality(spec, sort, depth), (spec.domain_id, depth)
            checks += 1
    for sort in (INTLIST, INT):
        for depth in (1, 2, 3):
            assert count_terms(LIST, sort, depth) == \
                len(enumerate_terms(LIST, sort, depth)), (sort, depth)
            checks += 1
    assert estimate_mu([var("A", INT)], ARITH, 2).fractions[0] == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 enumeration/recurrence: PASS "
          f"({checks} depth checks exact, coverage(A)=1.0, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 7. Sweep replication (directional, own harness)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_range_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "short_range.jsonl"
    plan = SweepPlan(seeds=(0, 1), epochs=30)  # 240 configurations per domain
    start = time.perf_counter()
    records = run_sweep(plan, out)
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def short_range_sweep(short_range_records):
    records, elapsed = short_range_records
    return analyze(records, windows=(30,)), elapsed


def _domain_stats(report):
    return {t["domain"]: t for t in report.domain_table}


def test_criterion_07a_mean_exponent_bands(short_range_sweep):
    report, _ = short_range_sweep
    stats = _domain_stats(report)
    means = {d: stats[d]["mean_b"] for d in ("arith", "bool", "list")}
    print(f"ACCEPTANCE 7a mean b: arith {means['arith']:.3f} "
          f"bool {means['bool']:.3f} list {means['list']:.3f}")
    assert 0.4 <= means["arith"] <= 1.0, means
    assert 0.4 <= means["bool"] <= 1.0, means
    assert means["arith"] > means["list"], means
    assert means["bool"] > means["list"], means
    print("ACCEPTANCE 7a mean exponent bands: PASS")


def test_criterion_07b_list_collapse_fraction(short_range_sweep):
    report, _ = short_range_sweep
    frac = _domain_stats(report)["list"]["frac_b_lt_0.1"]
    print(f"ACCEPTANCE 7b list collapse fraction: {frac:.3f}")
    assert 0.25 <= frac <= 0.60, frac
    print("ACCEPTANCE 7b list collapse fraction: PASS")


def test_criterion_07c_novelty_inversion(short_range_sweep):
    report, _ = short_range_sweep
    deltas = {}
    for domain in ("arith", "bool", "list"):
        rows = [r for r in report.exponents if r["domain"] == domain]
        any_b = [r["b"] for r in rows if r["filter"] == "any"]
        novelty_b = [r["b"] for r in rows if r["filter"] == "novelty"]
        deltas[domain] = float(np.mean(novelty_b) - np.mean(any_b))
    print(f"ACCEPTANCE 7c novelty effect on mean b: arith {deltas['arith']:+.3f} "
          f"bool {deltas['bool']:+.3f} list {deltas['list']:+.3f}")
    assert deltas["list"] < 0, deltas
    assert deltas["arith"] > 0, deltas
    assert deltas["bool"] > 0, deltas
    print("ACCEPTANCE 7c novelty inversion: PASS")


def test_criterion_07d_runtime(short_range_sweep):
    report, elapsed = short_range_sweep
    per_domain = {t["domain"]: t["n"] for t in report.domain_table}
    assert all(n >= 200 for n in per_domain.values()), per_domain
    assert elapsed < 1800.0, elapsed
    print(f"ACCEPTANCE 7d sweep runtime: PASS "
          f"({sum(per_domain.values())} configs in {elapsed:.0f}s)")


def test_short_range_sweep_golden(short_range_records, short_range_sweep):
    records, _ = short_range_records
    report, _ = short_range_sweep
    assert golden.records_digest(records) == golden.SHORT_RANGE_RECORDS
    assert (golden.digest(dict(report.window_winners[30]))
            == golden.SHORT_RANGE_WINNERS_30)


# ---------------------------------------------------------------------------
# 8. Regression shape (directional, own sweep)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def regression_reports(short_range_sweep):
    report, _ = short_range_sweep
    start = time.perf_counter()
    rows = report.exponents
    flat = [r for r in rows if r["domain"] in ("arith", "bool")]
    lists = [r for r in rows if r["domain"] == "list"]
    y_flat = np.array([r["b"] for r in flat])
    y_list = np.array([r["b"] for r in lists])
    out = {
        "within_flat": kfold_cv(build_features(flat), y_flat),
        "within_list": kfold_cv(build_features(lists), y_list),
        "transfer": transfer_eval(build_features(flat), y_flat,
                                  build_features(lists), y_list),
        "pooled": pooled_eval(rows, np.array([r["b"] for r in rows])),
        "elapsed": time.perf_counter() - start,
    }
    return out


def test_criterion_08a_within_substrate(regression_reports):
    flat = regression_reports["within_flat"]
    lists = regression_reports["within_list"]
    print(f"ACCEPTANCE 8a within-substrate r2: arith+bool "
          f"{flat.r2_mean:.3f}+-{flat.r2_std:.3f}, "
          f"list {lists.r2_mean:.3f}+-{lists.r2_std:.3f}")
    assert flat.r2_mean >= 0.5
    assert lists.r2_mean >= 0.5
    print("ACCEPTANCE 8a within-substrate r2: PASS")


def test_criterion_08b_transfer_fails_across_substrates(regression_reports):
    transfer = regression_reports["transfer"]
    print(f"ACCEPTANCE 8b transfer r2: {transfer.r2_mean:.3f} "
          f"(mean pred {transfer.mean_pred:.2f} vs actual {transfer.mean_actual:.2f})")
    assert transfer.r2_mean < 0.0, transfer.r2_mean
    print("ACCEPTANCE 8b transfer failure: PASS")


def test_criterion_08c_pooled_recovers(regression_reports):
    pooled = regression_reports["pooled"]
    transfer = regression_reports["transfer"]
    flat = regression_reports["within_flat"]
    lists = regression_reports["within_list"]
    elapsed = regression_reports["elapsed"]
    print(f"ACCEPTANCE 8c pooled r2: {pooled.r2_mean:.3f} ({elapsed:.0f}s)")
    assert pooled.r2_mean > transfer.r2_mean
    assert pooled.r2_mean >= min(flat.r2_mean, lists.r2_mean) - 0.1
    assert elapsed < 60.0
    print("ACCEPTANCE 8c pooled recovery: PASS")


# ---------------------------------------------------------------------------
# 9. Long-range window shift (directional)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def long_range_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("longrange") / "long_range.jsonl"
    start = time.perf_counter()
    records = run_sweep(long_range_plan(), out)
    return records, time.perf_counter() - start


def test_criterion_09_long_range_window_shift(long_range_runs):
    records, elapsed = long_range_runs
    assert len(records) == 5
    short_winners = set()
    sat_wins_500 = 0
    power_wins_oos = 0
    for rec in records:
        series = series_from_sizes(rec["sizes"])
        for window in (30, 50):
            short_winners.add(select_model(series.prefix(window),
                                           DEFAULT_MODELS)[0].model)
        by_name = {f.model: f for f in select_model(series.prefix(500),
                                                    DEFAULT_MODELS)}
        sat = by_name["saturating_pl"]
        if sat.converged and not sat.degenerate and \
                sat.aic < by_name["power_law"].aic:
            sat_wins_500 += 1
        forecast = {r.model: r.rmse_oos
                    for r in oos_forecast(series, 100, DEFAULT_MODELS)}
        if forecast["power_law"] < forecast["saturating_pl"]:
            power_wins_oos += 1
    print(f"ACCEPTANCE 9 long range: short-window winners {sorted(short_winners)}, "
          f"saturating wins in-sample at 500 on {sat_wins_500}/5 seeds, "
          f"power law wins OOS on {power_wins_oos}/5 seeds, {elapsed:.0f}s")
    assert elapsed < 1200.0
    assert len(short_winners) >= 2, short_winners
    assert sat_wins_500 >= 3, sat_wins_500
    assert power_wins_oos >= 3, power_wins_oos
    print("ACCEPTANCE 9 long-range window shift: PASS")


def test_long_range_runs_golden(long_range_runs):
    records, _ = long_range_runs
    assert golden.records_digest(records) == golden.LONG_RANGE_RECORDS


# ---------------------------------------------------------------------------
# 10. Ingestion exactness
# ---------------------------------------------------------------------------

def test_criterion_10_ingestion_exactness():
    start = time.perf_counter()
    records = [
        CommitRecord("2021-05", ["Mathlib/Algebra/Basic.lean",
                                 "docs/readme.md"]),
        CommitRecord("2021-05", ["Mathlib/Order/Lattice.lean"]),
        CommitRecord("2021-05", []),
        CommitRecord("2021-07", ["Mathlib/Topology/Deep/Nest.lean",
                                 "Mathlib/Top.lean"]),
    ]
    parsed = parse_log(format_log(records))
    commits = monthly_series(parsed, mode="commits")
    assert commits.months == ["2021-05", "2021-06", "2021-07"]
    assert commits.increments == [3, 0, 1]
    assert commits.cumulative == [3, 3, 4]
    tree = monthly_series(parsed, mode="new_files", glob="Mathlib/**/*.lean")
    assert tree.increments == [2, 0, 2]
    flat = monthly_series(parsed, mode="new_files", glob="Mathlib/*.lean")
    assert flat.increments == [0, 0, 1]

    three_point = GrowthSeries(np.array([3.5, 6.0, 8.5]),
                               np.array([170_000.0, 1_000_000.0, 2_100_000.0]))
    fit = fit_power_law(three_point, min_points=2)
    assert fit.params["b"] == pytest.approx(2.87, rel=0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 10 ingestion exactness: PASS "
          f"(b = {fit.params['b']:.3f}, {elapsed:.2f}s)")
