"""Growth-law fitting, model selection, bootstrap intervals, forecasting.

Five candidate growth laws for cumulative series n(t):

    power_law      n = a * t^b
    saturating_pl  n = a * t^k / (1 + mu * t^k)
    stretched_exp  n = a * (1 - exp(-(t/tau)^beta))
    linear         n = a + b * t
    log_normal     n = a * Phi((ln t - m) / s)

The power law and the line have closed-form least-squares fits; the rest go
through a damped Gauss-Newton loop with analytic Jacobians and a multi-start
grid.  All models report residuals, AIC, and BIC in linear space over the
full series so they are directly comparable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

MODELS = ("power_law", "stretched_exp", "saturating_pl", "linear", "log_normal")
DEFAULT_MODELS = ("power_law", "stretched_exp", "saturating_pl")

MAX_ITER = 500
RSS_REL_TOL = 1e-10
RSS_FLOOR = 1e-12       # keeps AIC finite on interpolating fits
DEGENERATE_K_MAX = 5.0  # stability filter on the saturating form
DEGENERATE_MU_MAX = 0.1


class SeriesError(ValueError):
    """Malformed growth series."""


@dataclass
class GrowthSeries:
    """Time axis (strictly increasing, positive) and cumulative counts."""

    t: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.n = np.asarray(self.n, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.n.shape:
            raise SeriesError("t and n must be 1-d arrays of equal length")
        if len(self.t) and (np.any(~np.isfinite(self.t)) or np.any(~np.isfinite(self.n))):
            raise SeriesError("series values must be finite")
        if np.any(np.diff(self.t) <= 0):
            raise SeriesError("t must be strictly increasing")
        if len(self.t) and self.t[0] <= 0:
            raise SeriesError("t must be positive")

    def __len__(self):
        return len(self.t)

    def prefix(self, count: int) -> "GrowthSeries":
        return GrowthSeries(self.t[:count], self.n[:count])


def series_from_sizes(sizes) -> GrowthSeries:
    sizes = list(sizes)
    return GrowthSeries(np.arange(1, len(sizes) + 1, dtype=float),
                        np.asarray(sizes, dtype=float))


def read_series_csv(path) -> GrowthSeries:
    """Two-column CSV with a header naming columns t and n."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"t", "n"} <= set(reader.fieldnames):
            raise SeriesError(f"{path}: expected columns t,n")
        t, n = [], []
        for row in reader:
            t.append(float(row["t"]))
            n.append(float(row["n"]))
    return GrowthSeries(np.array(t), np.array(n))


def write_series_csv(path, series: GrowthSeries):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n"])
        for t, n in zip(series.t, series.n):
            writer.writerow([format(t, ".12g"), format(n, ".12g")])


@dataclass
class FitResult:
    model: str
    params: dict[str, float]
    rss: float
    r2: float
    aic: float
    bic: float
    converged: bool
    degenerate: bool
    start_point: dict[str, float] = field(default_factory=dict)
    log_r2: float | None = None
    n_points: int = 0

    def predict(self, t) -> np.ndarray:
        return predict(self.model, self.params, np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# Model forms
# ---------------------------------------------------------------------------

def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF."""
    return ndtr(z)


def _phi_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


PARAM_NAMES = {
    "power_law": ("a", "b"),
    "saturating_pl": ("a", "k", "mu"),
    "stretched_exp": ("a", "tau", "beta"),
    "linear": ("a", "b"),
    "log_normal": ("a", "m", "s"),
}


def predict(model: str, params: dict, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        if model == "power_law":
            return params["a"] * t ** params["b"]
        if model == "saturating_pl":
            u = t ** params["k"]
            return params["a"] * u / (1.0 + params["mu"] * u)
        if model == "stretched_exp":
            g = (t / params["tau"]) ** params["beta"]
            return params["a"] * (1.0 - np.exp(-g))
        if model == "linear":
            return params["a"] + params["b"] * t
        if model == "log_normal":
            z = (np.log(t) - params["m"]) / params["s"]
            return params["a"] * _phi(z)
    raise ValueError(f"unknown model {model!r}")


def _model_eval(model: str, p: np.ndarray, t: np.ndarray):
    """Prediction and Jacobian together, sharing intermediates."""
    with np.errstate(all="ignore"):
        if model == "saturating_pl":
            a, k, mu = p
            u = t ** k
            denom = 1.0 + mu * u
            pred = a * u / denom
            dsq = denom * denom
            jac = np.column_stack([
                u / denom,
                a * u * np.log(t) / dsq,
                -a * u * u / dsq,
            ])
            return pred, jac
        if model == "stretched_exp":
            a, tau, beta = p
            ratio = t / tau
            g = ratio ** beta
            e = np.exp(-g)
            pred = a * (1.0 - e)
            jac = np.column_stack([
                1.0 - e,
                -a * e * beta * g / tau,
                a * e * g * np.log(ratio),
            ])
            return pred, jac
        if model == "log_normal":
            a, m, s = p
            z = (np.log(t) - m) / s
            pdf = _phi_pdf(z)
            pred = a * _phi(z)
            jac = np.column_stack([
                _phi(z),
                -a * pdf / s,
                -a * pdf * z / s,
            ])
            return pred, jac
        if model == "power_law":
            a, b = p
            u = t ** b
            return a * u, np.column_stack([u, a * u * np.log(t)])
    raise ValueError(f"unknown model {model!r}")


# a > 0; tau, beta, s > 0.  k and mu are unbounded and handled by the
# degeneracy flags instead.
_POSITIVE = {
    "power_law": (True, False),
    "saturating_pl": (True, False, False),
    "stretched_exp": (True, True, True),
    "linear": (False, False),
    "log_normal": (True, False, True),
}


def _start_points(model: str, t: np.ndarray, n: np.ndarray,
                  power_seed: dict | None) -> list[tuple]:
    n_max = max(float(np.max(n)), 1.0) if len(n) else 1.0
    t_end = float(t[-1])
    pos = n > 0
    t_ref = float(t[pos][0]) if np.any(pos) else float(t[0])
    n_ref = float(n[pos][0]) if np.any(pos) else 1.0
    starts: list[tuple] = []
    if model == "saturating_pl":
        for k in (0.3, 0.6, 0.9, 1.2, 2.0):
            for mu in (1e-4, 1e-3, 1e-2, 0.0):
                a = n_ref * (1.0 + mu * t_ref ** k) / t_ref ** k
                starts.append((max(a, 1e-9), k, mu))
        if power_seed is not None:
            starts.append((max(power_seed["a"], 1e-9), power_seed["b"], 0.0))
    elif model == "stretched_exp":
        for tau in (t_end / 10.0, t_end / 3.0, t_end):
            for beta in (0.5, 1.0, 1.5):
                starts.append((1.05 * n_max, tau, beta))
    elif model == "log_normal":
        m0 = float(np.mean(np.log(t)))
        for a in (1.05 * n_max, 2.0 * n_max):
            for s in (0.5, 1.0, 2.0):
                starts.append((a, m0, s))
    return starts


def _gauss_newton(model: str, p0: np.ndarray, t: np.ndarray, n: np.ndarray,
                  max_iter: int = MAX_ITER):
    """Damped least squares from one start; returns (params, rss, converged,
    iterations used)."""
    positive = _POSITIVE[model]
    p = np.asarray(p0, dtype=float)
    pred, jac = _model_eval(model, p, t)
    resid = n - pred
    if not np.all(np.isfinite(resid)):
        return p, math.inf, False, 0
    rss = float(resid @ resid)
    lam = 1e-3
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        if not np.all(np.isfinite(jac)):
            break
        grad = jac.T @ resid
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag <= 0] = 1.0
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            if any(flag and v <= 0 for flag, v in zip(positive, p_new)):
                lam *= 10.0
                if lam > 1e12:
                    break
                continue
            pred_new, jac_new = _model_eval(model, p_new, t)
            resid_new = n - pred_new
            with np.errstate(all="ignore"):
                rss_new = float(resid_new @ resid_new) if np.all(
                    np.isfinite(resid_new)) else math.inf
            if rss_new < rss:
                p, resid, jac = p_new, resid_new, jac_new
                improvement = (rss - rss_new) / max(rss, RSS_FLOOR)
                rss = rss_new
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                if improvement < RSS_REL_TOL:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if not accepted:
            converged = rss < math.inf
            break
        if converged:
            break
    else:
        converged = True
    return p, rss, converged and math.isfinite(rss), iterations


# ---------------------------------------------------------------------------
# Fitting entry points
# ---------------------------------------------------------------------------

def _linear_stats(model: str, params: dict, series: GrowthSeries):
    pred = predict(model, params, series.t)
    resid = series.n - pred
    rss = float(resid @ resid) if np.all(np.isfinite(resid)) else math.inf
    ss_tot = float(np.sum((series.n - np.mean(series.n)) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - rss / ss_tot
    else:
        r2 = 1.0 if rss < 1e-9 else 0.0
    return rss, r2


def _information(rss: float, n_points: int, n_params: int):
    rss = max(rss, RSS_FLOOR)
    if n_points == 0 or not math.isfinite(rss):
        return math.inf, math.inf
    aic = n_points * math.log(rss / n_points) + 2.0 * n_params
    bic = n_points * math.log(rss / n_points) + n_params * math.log(n_points)
    return aic, bic


def fit_power_law(series: GrowthSeries, min_points: int = 4) -> FitResult:
    """Closed-form OLS on (ln t, ln n); points with n < 1 are dropped first.

    Fewer than ``min_points`` usable points yields the degenerate flat fit
    (b = 0).  Linear-space rss/r2/AIC are reported over the full series; the
    log-space R2 of the fitted line is kept alongside for exponent tables.
    """
    keep = series.n >= 1.0
    n_kept = int(np.sum(keep))
    if n_kept < max(min_points, 2):
        params = {"a": float(np.mean(series.n)) if len(series) else 0.0, "b": 0.0}
        rss, r2 = _linear_stats("power_law", params, series)
        aic, bic = _information(rss, len(series), 2)
        return FitResult("power_law", params, rss, r2, aic, bic,
                         converged=True, degenerate=True, log_r2=None,
                         n_points=len(series))
    lt = np.log(series.t[keep])
    ln = np.log(series.n[keep])
    lt_mean, ln_mean = float(np.mean(lt)), float(np.mean(ln))
    var = float(np.sum((lt - lt_mean) ** 2))
    if var == 0 or np.all(ln == ln[0]):
        b = 0.0
    else:
        b = float(np.sum((lt - lt_mean) * (ln - ln_mean)) / var)
    a = math.exp(ln_mean - b * lt_mean)
    params = {"a": a, "b": b}
    fitted = math.log(a) + b * lt
    ss_res = float(np.sum((ln - fitted) ** 2))
    ss_tot = float(np.sum((ln - ln_mean) ** 2))
    log_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res < 1e-12 else 0.0)
    rss, r2 = _linear_stats("power_law", params, series)
    aic, bic = _information(rss, len(series), 2)
    return FitResult("power_law", params, rss, r2, aic, bic,
                     converged=True, degenerate=False, log_r2=log_r2,
                     n_points=len(series))


def _fit_linear(series: GrowthSeries) -> FitResult:
    t, n = series.t, series.n
    t_mean, n_mean = float(np.mean(t)), float(np.mean(n))
    var = float(np.sum((t - t_mean) ** 2))
    b = float(np.sum((t - t_mean) * (n - n_mean)) / var) if var > 0 else 0.0
    a = n_mean - b * t_mean
    params = {"a": a, "b": b}
    rss, r2 = _linear_stats("linear", params, series)
    aic, bic = _information(rss, len(series), 2)
    return FitResult("linear", params, rss, r2, aic, bic,
                     converged=True, degenerate=False, n_points=len(series))


def _saturating_degenerate(params: dict) -> bool:
    return (params["mu"] <= 0 or abs(params["k"]) > DEGENERATE_K_MAX
            or abs(params["mu"]) > DEGENERATE_MU_MAX)


def fit_model(model: str, series: GrowthSeries,
              start_override: dict | None = None) -> FitResult:
    """Fit one model in linear space; nonlinear families multi-start.

    The power law seeds from the closed-form log fit and is then polished
    in linear space so its residuals are comparable with the other
    families' (use fit_power_law directly for the log-OLS exponent).
    """
    if model == "power_law":
        log_fit = fit_power_law(series)
        if log_fit.degenerate:
            return log_fit
        start = start_override or log_fit.params
        p, rss, converged, _ = _gauss_newton(
            "power_law", np.array([start["a"], start["b"]]), series.t, series.n)
        if not converged:
            return log_fit
        params = {"a": float(p[0]), "b": float(p[1])}
        rss, r2 = _linear_stats("power_law", params, series)
        aic, bic = _information(rss, len(series), 2)
        return FitResult("power_law", params, rss, r2, aic, bic,
                         converged=True, degenerate=False,
                         start_point=dict(start), log_r2=log_fit.log_r2,
                         n_points=len(series))
    if model == "linear":
        return _fit_linear(series)
    names = PARAM_NAMES[model]
    power_seed = None
    if model == "saturating_pl" and start_override is None:
        power_seed = fit_model("power_law", series).params
    if start_override is not None:
        starts = [tuple(start_override[name] for name in names)]
    else:
        starts = _start_points(model, series.t, series.n, power_seed)
    best = None
    budget = MAX_ITER  # iteration budget shared across the multi-start grid
    for start in starts:
        if budget <= 0:
            break
        p, rss, converged, used = _gauss_newton(
            model, np.array(start, dtype=float), series.t, series.n,
            max_iter=budget)
        budget -= used
        if not converged:
            continue
        if best is None or rss < best[1]:
            best = (p, rss, start)
    if best is None:
        params = dict(zip(names, starts[0]))
        return FitResult(model, params, math.inf, -math.inf, math.inf, math.inf,
                         converged=False, degenerate=True,
                         start_point=dict(zip(names, starts[0])),
                         n_points=len(series))
    p, rss, start = best
    params = dict(zip(names, (float(v) for v in p)))
    rss, r2 = _linear_stats(model, params, series)
    aic, bic = _information(rss, len(series), len(names))
    degenerate = _saturating_degenerate(params) if model == "saturating_pl" else False
    return FitResult(model, params, rss, r2, aic, bic,
                     converged=True, degenerate=degenerate,
                     start_point=dict(zip(names, start)), n_points=len(series))


def select_model(series: GrowthSeries, models=DEFAULT_MODELS) -> list[FitResult]:
    """Fit each model and rank: non-degenerate converged fits by AIC, then
    degenerate fits by AIC, then non-converged fits."""
    if len(models) < 2:
        raise ValueError("select_model needs at least 2 candidate models")
    fits = [fit_model(m, series) for m in models]
    fits.sort(key=lambda f: ((2 if not f.converged else (1 if f.degenerate else 0)),
                             f.aic))
    return fits


# ---------------------------------------------------------------------------
# Bootstrap and forecasting
# ---------------------------------------------------------------------------

@dataclass
class BootstrapResult:
    intervals: dict[str, tuple[float, float, float]]  # name -> (lo95, hi95, point)
    n_resamples: int
    fraction_failed: float
    degenerate: bool


def bootstrap_ci(model: str, series: GrowthSeries, n_resamples: int = 500,
                 seed: int = 0) -> BootstrapResult:
    """Residual-resampling confidence intervals around a converged base fit.

    Residuals of the base fit are resampled with replacement, added back to
    the fitted curve (clipped below at 0), and refit from the base
    parameters; the 2.5/97.5 percentiles over converged resamples form the
    intervals.
    """
    base = fit_model(model, series)
    if not base.converged:
        raise ValueError(f"{model}: base fit did not converge")
    fitted = base.predict(series.t)
    resid = series.n - fitted
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    names = PARAM_NAMES[model]
    draws: list[list[float]] = []
    failed = 0
    for _ in range(n_resamples):
        idx = rng.integers(0, len(series), size=len(series))
        synthetic = np.clip(fitted + resid[idx], 0.0, None)
        try:
            boot_series = GrowthSeries(series.t, synthetic)
            refit = fit_model(model, boot_series, start_override=base.params)
        except (ValueError, FloatingPointError):
            failed += 1
            continue
        if not refit.converged:
            failed += 1
            continue
        draws.append([refit.params[name] for name in names])
    fraction_failed = failed / n_resamples if n_resamples else 0.0
    intervals = {}
    if draws:
        arr = np.array(draws)
        lo = np.percentile(arr, 2.5, axis=0)
        hi = np.percentile(arr, 97.5, axis=0)
        for i, name in enumerate(names):
            intervals[name] = (float(lo[i]), float(hi[i]), base.params[name])
    else:
        for name in names:
            intervals[name] = (math.nan, math.nan, base.params[name])
    degenerate = fraction_failed > 0.5 or base.degenerate
    return BootstrapResult(intervals, n_resamples, fraction_failed, degenerate)


@dataclass
class ForecastResult:
    model: str
    split: int
    rmse_oos: float
    mape_oos: float
    fit: FitResult


def oos_forecast(series: GrowthSeries, split: int,
                 models=DEFAULT_MODELS) -> list[ForecastResult]:
    """Fit each model on the first ``split`` points, score on the rest."""
    if not 4 <= split < len(series):
        raise ValueError("split must be in [4, len(series))")
    prefix = series.prefix(split)
    t_tail = series.t[split:]
    n_tail = series.n[split:]
    out = []
    for model in models:
        fit = fit_model(model, prefix)
        if not fit.converged:
            out.append(ForecastResult(model, split, math.inf, math.inf, fit))
            continue
        pred = fit.predict(t_tail)
        err = pred - n_tail
        if not np.all(np.isfinite(err)):
            rmse = mape = math.inf
        else:
            rmse = float(np.sqrt(np.mean(err ** 2)))
            pos = n_tail > 0
            mape = float(np.mean(np.abs(err[pos]) / n_tail[pos])) if np.any(pos) else math.inf
        out.append(ForecastResult(model, split, rmse, mape, fit))
    return out


# ---------------------------------------------------------------------------
# Report rows
# ---------------------------------------------------------------------------

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
