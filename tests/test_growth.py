import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from eqgrow import growth
from eqgrow.growth import (
    DEFAULT_MODELS, FitResult, GrowthSeries, MODELS, PARAM_NAMES, SeriesError,
    TAU_BOX, X_MIN,
    bootstrap_ci, fit_csv_row, fit_model, fit_power_law, oos_forecast, predict,
    read_series_csv, select_model, series_from_sizes, write_series_csv,
)

T200 = np.arange(1, 201, dtype=float)

FAMILY_PARAMS = {
    "power_law": {"a": 2.0, "b": 0.7},
    "saturating_pl": {"a": 5.0, "k": 0.9, "mu": 0.01},
    "stretched_exp": {"a": 120.0, "tau": 35.0, "beta": 1.4},
    "linear": {"a": 30.0, "b": 2.0},
    "log_normal": {"a": 900.0, "m": 3.0, "s": 0.8},
}


def noisy(model, params, t, seed, level=0.01):
    rng = np.random.default_rng(seed)
    clean = predict(model, params, t)
    return GrowthSeries(t, np.clip(clean * (1 + level * rng.standard_normal(len(t))), 0, None))


# ---------------------------------------------------------------------------
# power law
# ---------------------------------------------------------------------------

def test_power_law_exact_recovery():
    fit = fit_power_law(GrowthSeries(T200, T200))
    assert abs(fit.params["a"] - 1) < 1e-12
    assert abs(fit.params["b"] - 1) < 1e-12
    assert fit.r2 == pytest.approx(1.0)


def test_power_law_machine_precision():
    series = GrowthSeries(T200, 3.7 * T200 ** 0.83)
    fit = fit_power_law(series)
    assert fit.params["a"] == pytest.approx(3.7, rel=1e-12)
    assert fit.params["b"] == pytest.approx(0.83, rel=1e-12)


def test_power_law_flat_series():
    fit = fit_power_law(GrowthSeries(T200, np.full(200, 7.0)))
    assert fit.params["b"] == 0.0


def test_power_law_too_few_points_degenerate():
    series = GrowthSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                          np.array([0.0, 0.0, 0.0, 2.0, 3.0]))
    fit = fit_power_law(series)
    assert fit.degenerate and fit.params["b"] == 0.0


@pytest.mark.parametrize("model", MODELS)
def test_empty_series_is_refused_but_flat_in_log_fit(model):
    empty = series_from_sizes([])
    with pytest.raises(SeriesError, match="empty series"):
        fit_model(model, empty)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_power_law(empty)
    assert fit.degenerate and fit.params == {"a": 0.0, "b": 0.0}
    assert (fit.r2, fit.rss) == (1.0, 0.0)


def test_three_point_library_size_fixture():
    # mathlib-style lines-of-code points at 3.5, 6, and 8.5 years
    series = GrowthSeries(np.array([3.5, 6.0, 8.5]),
                          np.array([170_000.0, 1_000_000.0, 2_100_000.0]))
    fit = fit_power_law(series, min_points=2)
    assert fit.params["b"] == pytest.approx(2.87, rel=0.05)
    assert fit.params["a"] == pytest.approx(4957, rel=0.05)
    assert fit.log_r2 == pytest.approx(0.988, abs=0.01)


def test_zero_points_included_linearly_excluded_logarithmically():
    n = np.concatenate([[0.0, 0.0], 2.0 * T200[2:] ** 0.5])
    fit = fit_power_law(GrowthSeries(T200, n))
    assert not fit.degenerate
    assert fit.n_points == 200


# ---------------------------------------------------------------------------
# nonlinear fits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model,params", [
    ("saturating_pl", {"a": 5.0, "k": 0.9, "mu": 0.001}),
    ("stretched_exp", {"a": 120.0, "tau": 35.0, "beta": 1.4}),
    ("log_normal", {"a": 900.0, "m": 3.0, "s": 0.8}),
    ("linear", {"a": 30.0, "b": 2.0}),
])
def test_noise_free_recovery(model, params):
    t = np.arange(1, 501, dtype=float) if model == "saturating_pl" else T200
    fit = fit_model(model, GrowthSeries(t, predict(model, params, t)))
    assert fit.converged
    for name, value in params.items():
        assert fit.params[name] == pytest.approx(value, rel=1e-3)


def test_saturating_nested_power_law_flagged():
    series = GrowthSeries(T200, 2.0 * T200 ** 0.5)
    fit = fit_model("saturating_pl", series)
    assert fit.converged
    assert fit.params["k"] == pytest.approx(0.5, abs=0.01)
    assert abs(fit.params["mu"]) < 1e-4
    assert fit.degenerate == (fit.params["mu"] <= 0)


def test_saturating_stability_filter():
    fit = FitResult("saturating_pl", {"a": 1.0, "k": 9.0, "mu": 0.001},
                    1.0, 0.9, 0.0, 0.0, True, False)
    from eqgrow.growth import _saturating_degenerate
    assert _saturating_degenerate({"a": 1, "k": 9.0, "mu": 0.001})
    assert _saturating_degenerate({"a": 1, "k": 0.9, "mu": 0.2})
    assert not _saturating_degenerate({"a": 1, "k": 0.9, "mu": 0.001})


def test_nested_model_dominance():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = np.cumsum(rng.integers(0, 5, size=120)).astype(float) + 1
        series = GrowthSeries(np.arange(1, 121, dtype=float), n)
        power = fit_model("power_law", series)
        saturating = fit_model("saturating_pl", series)
        assert saturating.rss <= power.rss * (1 + 1e-9)


def test_exhausted_budget_is_not_converged(monkeypatch):
    # each start gets MAX_ITER iterations; spending them is not convergence
    monkeypatch.setattr(growth, "MAX_ITER", 1)
    series = noisy("saturating_pl", {"a": 5.0, "k": 0.9, "mu": 0.01}, T200, 0)
    fit = fit_model("saturating_pl", series)
    assert not fit.converged
    assert fit.aic == math.inf


def test_unconverged_fit_reports_first_start_with_projected_scale(monkeypatch):
    monkeypatch.setattr(growth, "MAX_ITER", 1)
    series = noisy("stretched_exp", {"a": 120.0, "tau": 35.0, "beta": 1.4}, T200, 0)
    fit = fit_model("stretched_exp", series)
    assert not fit.converged and fit.aic == math.inf
    assert {k: v for k, v in fit.params.items() if k != "a"} == fit.start_point
    g = predict("stretched_exp", {**fit.params, "a": 1.0}, T200)
    assert fit.params["a"] == pytest.approx(g @ series.n / (g @ g), rel=1e-12)
    row = fit_csv_row(fit)
    assert all(math.isfinite(v) for v in json.loads(row[1]).values())


SHAPES = [
    ("power_law", {"b": 0.7}, {"b": 1.3}),
    ("saturating_pl", {"k": 0.9, "mu": 0.01}, {"k": 1.5, "mu": 0.002}),
    ("stretched_exp", {"tau": 35.0, "beta": 1.4}, {"tau": 300.0, "beta": 0.6}),
    ("log_normal", {"m": 3.0, "s": 0.8}, {"m": 5.0, "s": 1.7}),
]


@pytest.mark.parametrize("model,theta", [(m, th) for m, *thetas in SHAPES
                                         for th in thetas])
def test_projection_matches_lstsq_and_finite_differences(model, theta):
    n = noisy(model, {"a": 3.0, **theta}, T200, 8, level=0.05).n
    shape = np.array(list(theta.values()))

    def scaled(values):
        # one row of the stacked form
        g, dg = growth._shape(model, values[None], T200)
        a, jac = growth._project(g, dg, n)
        return a[0], g[0], [column[0] for column in jac]

    a, g, jac = scaled(shape)
    (ref,), *_ = np.linalg.lstsq(g[:, None], n, rcond=None)
    assert a == pytest.approx(ref, rel=1e-10)
    for j in range(len(shape)):
        h = 1e-6 * abs(shape[j])
        up, down = shape.copy(), shape.copy()
        up[j] += h
        down[j] -= h
        a_up, g_up, _ = scaled(up)
        a_down, g_down, _ = scaled(down)
        numeric = (a_up * g_up - a_down * g_down) / (2 * h)
        assert np.allclose(jac[j], numeric, rtol=1e-5,
                           atol=1e-7 * np.max(np.abs(numeric)))


@pytest.mark.parametrize("series", [
    GrowthSeries(T200, predict("power_law", {"a": 2.0, "b": 0.7}, T200)),
    series_from_sizes([5.0] * 30),
    series_from_sizes([3, 3, 3] + [4] * 14 + [5, 7, 8, 9, 10, 12, 13, 15, 17,
                                             19, 19, 23, 26]),
], ids=["power_law", "flat", "convex"])
def test_stretched_exp_tau_stays_in_box(series):
    # unbounded, tau runs to 5e12 on the power law, where 1 - exp(-x) is
    # cancellation noise and the rss is off by 27%, and below 1e-4 on the
    # flat series; on the convex series (a 30-epoch list trajectory) beta is
    # near 2.5, so TAU_BOX alone leaves x(t[0]) near 1e-14 and the rss off
    # by 1.2e-6 relative
    fit = fit_model("stretched_exp", series)
    assert fit.converged
    a, tau, beta = fit.params["a"], fit.params["tau"], fit.params["beta"]
    t0 = float(series.t[0])
    assert t0 / TAU_BOX <= tau <= TAU_BOX * series.t[-1]
    assert (t0 / tau) ** beta >= X_MIN * (1 - 1e-9)
    rss = math.fsum((float(n) - a * (1.0 - math.exp(-(float(t) / tau) ** beta))) ** 2
                    for t, n in zip(series.t, series.n))
    assert fit.rss == pytest.approx(rss, rel=1e-7, abs=0.0)


def test_log_normal_far_tail_flagged_degenerate():
    # on a power law the fit runs into the CDF's far left tail (a ~ 1e161),
    # where a, m and s are not identified
    for family, degenerate in (("power_law", True), ("log_normal", False)):
        clean = GrowthSeries(T200, predict(family, FAMILY_PARAMS[family], T200))
        fit = fit_model("log_normal", clean)
        assert fit.converged and fit.degenerate == degenerate, fit.params


def test_log_normal_stops_in_the_far_tail(monkeypatch):
    # each row stops at its first point in the far tail; run on to
    # convergence, the three starts took 615 solver passes in all
    passes = []
    original = growth._shape

    def counting(model, theta, t):
        passes.append(model)
        return original(model, theta, t)

    monkeypatch.setattr(growth, "_shape", counting)
    clean = GrowthSeries(T200, predict("power_law", FAMILY_PARAMS["power_law"], T200))
    fit = fit_model("log_normal", clean)
    assert fit.converged and fit.degenerate
    # 77 here: the first evaluation, 75 passes, and one in predict
    assert passes.count("log_normal") <= 150


# ---------------------------------------------------------------------------
# batched solver against the per-start loop it replaced
# ---------------------------------------------------------------------------

def scalar_gauss_newton(model, theta0, t, n):
    """The per-start damped Gauss-Newton loop, kept as the stacked solver's
    reference: one start at a time, with np.linalg.solve and BLAS dots."""
    def evaluate(theta):
        g, dg = growth._shape(model, theta[None], t)
        g, dg = g[0], np.column_stack([d[0] for d in dg])
        gg = g @ g
        a = (g @ n) / gg
        da = (dg.T @ n - 2.0 * a * (dg.T @ g)) / gg
        jac = a * dg + np.outer(g, da)
        resid = n - a * g
        rss = float(resid @ resid)
        if not (growth._feasible(model, theta[None], np.array([a]))[0]
                and math.isfinite(rss)):
            rss = math.inf
        return a, resid, jac, rss

    def box(theta):
        bounds = growth._box(model, theta[None], t)
        return (-math.inf, math.inf) if bounds is None else (bounds[0], bounds[1][0])

    theta = np.asarray(theta0, dtype=float)
    with np.errstate(all="ignore"):
        theta = np.clip(theta, *box(theta))
        a, resid, jac, rss = evaluate(theta)
        if rss == math.inf:
            return theta, a, rss, False
        lam = 1e-3
        for _ in range(growth.MAX_ITER):
            if not np.all(np.isfinite(jac)):
                return theta, a, rss, False
            grad = jac.T @ resid
            lo, hi = box(theta)
            free = ~(((theta <= lo) & (grad < 0)) | ((theta >= hi) & (grad > 0)))
            grad = grad * free
            jac_free = jac * free
            hess = jac_free.T @ jac_free
            diag = np.diag(hess).copy()
            diag[diag <= 0] = 1.0
            while True:
                if lam > 1e12:
                    return theta, a, rss, True
                try:
                    step = np.linalg.solve(hess + lam * np.diag(diag), grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                theta_new = theta + step
                theta_new = np.clip(theta_new, *box(theta_new))
                trial = evaluate(theta_new)
                if trial[3] < rss:
                    break
                lam *= 10.0
            improvement = (rss - trial[3]) / max(rss, growth.RSS_FLOOR)
            theta = theta_new
            a, resid, jac, rss = trial
            lam = max(lam / 10.0, 1e-14)
            if improvement < growth.RSS_REL_TOL:
                return theta, a, rss, True
            if model == "log_normal" and ndtr((math.log(t[-1]) - theta[0]) / theta[1]) < X_MIN:
                return theta, a, rss, True
    return theta, a, rss, False


def looped_gauss_newton(blocks, t, n):
    """scalar_gauss_newton row by row, behind the stacked solver's signature."""
    starts = [(model, theta) for model, theta0 in blocks
              for theta in np.asarray(theta0, dtype=float)]
    rows = [scalar_gauss_newton(model, theta, t, n[i] if n.ndim == 2 else n)
            for i, (model, theta) in enumerate(starts)]
    theta, a, rss, converged = zip(*rows)
    return np.array(theta), np.array(a), np.array(rss), np.array(converged)


def _degenerate(model, params, t):
    if model == "saturating_pl":
        return growth._saturating_degenerate(params)
    if model == "log_normal":
        return growth._log_normal_degenerate(params, t)
    return False


@pytest.mark.parametrize("length", [30, 60, 200])
@pytest.mark.parametrize("family", MODELS)
def test_batched_solver_matches_scalar_reference(family, length, monkeypatch):
    t = np.arange(1, length + 1, dtype=float)
    series = noisy(family, FAMILY_PARAMS[family], t, seed=length)
    power_b = fit_model("power_law", series).params["b"]
    for model in ("power_law", "saturating_pl", "stretched_exp", "log_normal"):
        # every start of the family's grid; saturating_pl's last one is the
        # (b, 0) seed from the polished power law
        starts = np.array([(fit_power_law(series).params["b"],)] if model == "power_law"
                          else growth._start_points(model, t, power_b), dtype=float)
        theta, a, rss, converged = growth._gauss_newton([(model, starts)], t, series.n)
        _, _, ref_rss, ref_converged = looped_gauss_newton([(model, starts)], t, series.n)
        assert converged.tolist() == ref_converged.tolist(), model
        if not converged.any():
            continue
        best = int(np.argmin(np.where(converged, rss, math.inf)))
        params = dict(zip(PARAM_NAMES[model], (a[best], *theta[best])))
        if not _degenerate(model, params, t):
            ref_best = np.min(np.where(ref_converged, ref_rss, math.inf))
            assert rss[best] == pytest.approx(ref_best, rel=1e-6), model
    winner = select_model(series, MODELS)[0].model
    monkeypatch.setattr(growth, "_gauss_newton", looped_gauss_newton)
    assert select_model(series, MODELS)[0].model == winner


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_requires_two_models():
    with pytest.raises(ValueError):
        select_model(GrowthSeries(T200, T200), ("power_law",))


def test_select_power_over_saturating_on_power_data():
    wins = 0
    for seed in range(10):
        series = noisy("power_law", {"a": 2.0, "b": 0.7}, T200, seed)
        ranked = select_model(series, MODELS)
        wins += ranked[0].model == "power_law"
    assert wins >= 8


def test_select_saturating_when_knee_inside_range():
    wins = 0
    for seed in range(10):
        series = noisy("saturating_pl", {"a": 5.0, "k": 0.9, "mu": 0.01},
                       T200, seed)
        ranked = select_model(series, MODELS)
        wins += ranked[0].model == "saturating_pl"
    assert wins >= 8


def test_select_monthly_commit_style_series():
    # 129-month power-law-like history: the power law outranks the
    # saturating form (whose extra parameter collapses toward zero) on a
    # clear majority of noise draws
    t = np.arange(1, 130, dtype=float)
    wins = 0
    for seed in range(10):
        series = noisy("power_law", {"a": 2.0, "b": 1.05}, t, seed, level=0.01)
        by_name = {f.model: f for f in select_model(series, DEFAULT_MODELS)}
        wins += (by_name["power_law"].aic < by_name["saturating_pl"].aic
                 or by_name["saturating_pl"].degenerate)
    assert wins >= 7


def counting_solves(monkeypatch):
    """The families of each solver call, in call order."""
    calls = []
    original = growth._gauss_newton

    def counting(blocks, t, n):
        calls.append([model for model, _ in blocks])
        return original(blocks, t, n)

    monkeypatch.setattr(growth, "_gauss_newton", counting)
    return calls


def test_select_fits_power_law_once(monkeypatch):
    series = noisy("saturating_pl", FAMILY_PARAMS["saturating_pl"], T200, 1)
    alone = fit_model("saturating_pl", series)
    calls = counting_solves(monkeypatch)
    ranked = select_model(series, DEFAULT_MODELS)
    # the power-law polish, then one solve over every other family's starts
    assert calls == [["power_law"], ["stretched_exp", "saturating_pl"]]
    # the reused exponent seeds the same (b, 0) start as a fit of its own
    assert next(f for f in ranked if f.model == "saturating_pl").params == alone.params


def test_forecast_fits_each_family_once(monkeypatch):
    series = noisy("saturating_pl", FAMILY_PARAMS["saturating_pl"], T200, 2)
    prefix = series.prefix(100)
    alone = {m: fit_model(m, prefix) for m in DEFAULT_MODELS}
    calls = counting_solves(monkeypatch)
    results = oos_forecast(series, 100, DEFAULT_MODELS)
    assert calls == [["power_law"], ["stretched_exp", "saturating_pl"]]
    assert [r.model for r in results] == list(DEFAULT_MODELS)
    for r in results:
        assert r.fit.params == alone[r.model].params


def bitwise(fit):
    # repr round-trips every float exactly, and tells numpy scalars apart
    return repr(vars(fit))


@pytest.mark.parametrize("length", [30, 60, 200])
@pytest.mark.parametrize("family", MODELS + ("flat",))
def test_stacked_fits_equal_fits_of_their_own(family, length):
    # "flat" stays below 1, so its log-log power law is degenerate (b = 0)
    # and seeds saturating_pl's (0, 0) start without a polish
    t = np.arange(1, length + 1, dtype=float)
    series = (GrowthSeries(t, np.full(length, 0.5)) if family == "flat"
              else noisy(family, FAMILY_PARAMS[family], t, seed=length + 1))
    alone = {m: bitwise(fit_model(m, series)) for m in MODELS}
    assert sorted(bitwise(f) for f in select_model(series, MODELS)) == sorted(alone.values())
    split = length // 2
    prefix_alone = {m: bitwise(fit_model(m, series.prefix(split))) for m in MODELS}
    for r in oos_forecast(series, split, MODELS):
        assert bitwise(r.fit) == prefix_alone[r.model], r.model


def test_nonconverged_ranks_last():
    series = GrowthSeries(T200, T200)
    ranked = select_model(series, MODELS)
    for worse, better in zip(ranked[1:], ranked):
        key = lambda f: (2 if not f.converged else (1 if f.degenerate else 0), f.aic)
        assert key(better) <= key(worse)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_zero_noise_zero_width():
    series = GrowthSeries(T200, predict("power_law", {"a": 2.0, "b": 0.8}, T200))
    result = bootstrap_ci("power_law", series, n_resamples=50, seed=1)
    lo, hi, point = result.intervals["b"]
    assert hi - lo < 1e-9
    assert lo - 1e-9 <= point <= hi + 1e-9
    assert not result.degenerate


def test_bootstrap_percentile_ordering():
    series = noisy("saturating_pl", {"a": 5.0, "k": 0.9, "mu": 0.01}, T200, 3)
    result = bootstrap_ci("saturating_pl", series, n_resamples=60, seed=2)
    for lo, hi, _ in result.intervals.values():
        assert lo <= hi
    assert result.fraction_failed <= 0.5


def test_bootstrap_negative_mu_marks_degenerate():
    # slightly super-power-law data pushes the best saturating mu below zero
    t = np.arange(1, 301, dtype=float)
    n = 2.0 * t ** 0.8 * (1 + 0.0005 * t)
    result = bootstrap_ci("saturating_pl", GrowthSeries(t, n),
                          n_resamples=30, seed=0)
    assert result.intervals["mu"][2] < 0
    assert result.degenerate


def per_resample_bootstrap(model, series, n_resamples, seed):
    """bootstrap_ci as one single-row solve per resample, from the base
    fit's shape parameters: the reference for the stacked refits."""
    base = fit_model(model, series)
    fitted = base.predict(series.t)
    resid = series.n - fitted
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws, failed = [], 0
    for _ in range(n_resamples):
        idx = rng.integers(0, len(series), size=len(series))
        row = np.clip(fitted + resid[idx], 0.0, None)
        start = [tuple(base.params[name] for name in PARAM_NAMES[model][1:])]
        theta, a, _, converged = growth._gauss_newton([(model, start)], series.t, row)
        params = [a[0], *theta[0]]
        if model == "power_law":
            # the log-OLS fit stands in for a degenerate series or an
            # unconverged polish, as in fit_model
            log_fit = fit_power_law(GrowthSeries(series.t, row))
            if log_fit.degenerate or not converged[0]:
                params = [log_fit.params[name] for name in PARAM_NAMES[model]]
                converged = [True]
        if converged[0]:
            draws.append(params)
        else:
            failed += 1
    return (np.percentile(draws, 2.5, axis=0), np.percentile(draws, 97.5, axis=0),
            failed / n_resamples)


TAIL_ZEROS = GrowthSeries(np.arange(1, 21, dtype=float), np.concatenate(
    [np.linspace(0.05, 0.6, 14), [0.9, 1.1, 0.95, 1.3, 1.05, 1.6]]))


@pytest.mark.parametrize("model,series,max_iter", [
    ("saturating_pl", noisy("saturating_pl", FAMILY_PARAMS["saturating_pl"], T200, 5, 0.02), 500),
    # three steps leave about 40% of the refits unconverged
    ("saturating_pl", noisy("saturating_pl", FAMILY_PARAMS["saturating_pl"], T200, 5, 0.02), 3),
    ("power_law", noisy("power_law", FAMILY_PARAMS["power_law"], T200, 5, 0.02), 500),
    # one step leaves the polish unconverged, so the log-OLS fit stands in
    ("power_law", noisy("power_law", FAMILY_PARAMS["power_law"], T200, 5, 0.02), 1),
    # a few resamples keep fewer than 4 points >= 1: degenerate log fits
    ("power_law", TAIL_ZEROS, 500),
], ids=["saturating_pl", "saturating_pl-3-steps", "power_law", "power_law-1-step",
        "power_law-degenerate-rows"])
def test_bootstrap_matches_per_resample_refits(model, series, max_iter, monkeypatch):
    monkeypatch.setattr(growth, "MAX_ITER", max_iter)
    result = bootstrap_ci(model, series, n_resamples=100, seed=1)
    lo, hi, fraction_failed = per_resample_bootstrap(model, series, 100, 1)
    assert result.fraction_failed == pytest.approx(fraction_failed, rel=1e-9)
    for i, name in enumerate(PARAM_NAMES[model]):
        assert result.intervals[name][0] == pytest.approx(lo[i], rel=1e-9)
        assert result.intervals[name][1] == pytest.approx(hi[i], rel=1e-9)
    if max_iter == 3:
        assert 0.2 < result.fraction_failed < 0.6


# ---------------------------------------------------------------------------
# forecasting
# ---------------------------------------------------------------------------

def test_forecast_perfect_power_rmse_zero():
    series = GrowthSeries(T200, 2.0 * T200)
    results = oos_forecast(series, 100, ("power_law", "linear"))
    by_name = {r.model: r for r in results}
    assert by_name["power_law"].rmse_oos < 1e-6


def test_forecast_saturated_data_prefers_saturating():
    t = np.arange(1, 501, dtype=float)
    series = noisy("saturating_pl", {"a": 5.0, "k": 0.9, "mu": 0.004}, t, 5,
                   level=0.005)
    results = oos_forecast(series, 250, ("power_law", "saturating_pl"))
    by_name = {r.model: r for r in results}
    assert by_name["saturating_pl"].rmse_oos < by_name["power_law"].rmse_oos


def test_forecast_anti_leakage():
    series = noisy("power_law", {"a": 2.0, "b": 0.9}, T200, 6)
    fits = {r.model: r.fit for r in oos_forecast(series, 80, DEFAULT_MODELS)}
    tampered = GrowthSeries(series.t, np.concatenate([series.n[:80],
                                                      series.n[80:] * 100]))
    fits2 = {r.model: r.fit for r in oos_forecast(tampered, 80, DEFAULT_MODELS)}
    for model in fits:
        assert fits[model].params == fits2[model].params


def test_forecast_split_bounds():
    series = GrowthSeries(T200, T200)
    with pytest.raises(ValueError):
        oos_forecast(series, 3)
    with pytest.raises(ValueError):
        oos_forecast(series, 200)


# ---------------------------------------------------------------------------
# series plumbing
# ---------------------------------------------------------------------------

def test_series_validation():
    with pytest.raises(ValueError):
        GrowthSeries(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GrowthSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


def test_series_csv_roundtrip(tmp_path):
    series = series_from_sizes([1, 3, 5, 5, 9])
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    loaded = read_series_csv(path)
    assert np.array_equal(loaded.t, series.t)
    assert np.array_equal(loaded.n, series.n)
