"""Growth-law fitting, model selection, bootstrap intervals, forecasting.

Five candidate growth laws for cumulative series n(t):

    power_law      n = a * t^b
    saturating_pl  n = a * t^k / (1 + mu * t^k)
    stretched_exp  n = a * (1 - exp(-(t/tau)^beta))
    linear         n = a + b * t
    log_normal     n = a * Phi((ln t - m) / s)

All but the line are n = a * g(t; theta), with the scale a entering
linearly.  They are fitted by variable projection (Golub & Pereyra 1973):
at every theta the best a is solved in closed form, a* = g.n / g.g, and a
damped Gauss-Newton loop with the exact Jacobian of a* * g searches theta
alone, which has at most two entries.  a > 0 is kept explicitly.  The loop
runs on a stack of rows at once, each row tagged with its family: a model
selection or forecast polishes the power law from its closed-form log-log
fit, then solves every start of every other scaled family it names in one
stack, and a bootstrap solves all its resamples in one.  fit_model is the
same two solves for one family.  Each row keeps its own
Levenberg-Marquardt damping and its own budget of MAX_ITER accepted steps,
and a row that spends them is not converged; each pass evaluates a
family's shape on its own rows and everything else once over the stack,
with row-wise reductions, so a row's arithmetic does not depend on the
rows beside it.  The 1x1 or 2x2 damped system of each row is solved in
closed form, and a pass evaluates only the rows still running.  The line
is fitted in closed form.

stretched_exp keeps tau inside t[0] / TAU_BOX <= tau <= TAU_BOX * t[-1],
and x = (t/tau)^beta at or above X_MIN at t[0].  On flat data tau otherwise
crawls toward 0 and spends the budget.  On power-law data it runs off
toward infinity, where 1 - exp(-x) is cancellation noise: two correct
evaluations of the formula then disagree far beyond machine precision, so
the reported rss would not be that of the formula.  X_MIN matters on
convex series, where beta is large and TAU_BOX alone leaves x near 1e-14.
A parameter that reaches its bound stays there while the others go on.
A log_normal fit whose whole series lies in the CDF's far left tail
(Phi < X_MIN at t[-1]) is flagged degenerate: a, m and s are not
identified there.  A log_normal row stops, converged, at its first point
in that tail; on power-law data it would otherwise run hundreds of steps on
toward a ~ 1e161, flagged all the same.

All models report residuals, AIC, and BIC in linear space over the full
series so they are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODELS = ("power_law", "stretched_exp", "saturating_pl", "linear", "log_normal")
DEFAULT_MODELS = ("power_law", "stretched_exp", "saturating_pl")

MAX_ITER = 500
RSS_REL_TOL = 1e-10
RSS_FLOOR = 1e-12       # keeps AIC finite on interpolating fits
DEGENERATE_K_MAX = 5.0  # stability filter on the saturating form
DEGENERATE_MU_MAX = 0.1
TAU_BOX = 1e4           # stretched_exp keeps t[0] / TAU_BOX <= tau <= TAU_BOX * t[-1]
X_MIN = 1e-10           # and keeps (t[0] / tau)^beta >= X_MIN


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
    log_r2: float | None = None

    def predict(self, t) -> np.ndarray:
        return predict(self.model, self.params, np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# Model forms
# ---------------------------------------------------------------------------

PARAM_NAMES = {
    "power_law": ("a", "b"),
    "saturating_pl": ("a", "k", "mu"),
    "stretched_exp": ("a", "tau", "beta"),
    "linear": ("a", "b"),
    "log_normal": ("a", "m", "s"),
}


def _shape(model: str, theta: np.ndarray, t: np.ndarray):
    """g(t; theta) of a scaled family n = a * g for each row of theta (S, p),
    as an (S, T) array, and dg/dtheta as a tuple of p such arrays.  Callers
    set np.errstate: overflow is caught as a non-finite rss."""
    cols = [theta[:, j, None] for j in range(theta.shape[1])]
    if model == "power_law":
        (b,) = cols
        g = t ** b
        return g, (g * np.log(t),)
    if model == "saturating_pl":
        k, mu = cols
        u = t ** k
        denom = 1.0 + mu * u
        g = u / denom
        return g, (g * np.log(t) / denom, -g * g)
    if model == "stretched_exp":
        tau, beta = cols
        ratio = t / tau
        x = ratio ** beta
        e = np.exp(-x)
        return 1.0 - e, (-e * beta * x / tau, e * x * np.log(ratio))
    if model == "log_normal":
        from scipy.special import ndtr  # only log_normal needs scipy
        m, s = cols
        z = (np.log(t) - m) / s
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return ndtr(z), (-pdf / s, -pdf * z / s)
    raise ValueError(f"unknown model {model!r}")


def _theta(model: str, params: dict) -> tuple:
    return tuple(params[name] for name in PARAM_NAMES[model][1:])


def predict(model: str, params: dict, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if model == "linear":
        return params["a"] + params["b"] * t
    with np.errstate(all="ignore"):
        return params["a"] * _shape(model, np.array([_theta(model, params)]), t)[0][0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis; each row is summed on its
    own, so its value does not depend on the other rows of the stack."""
    return np.add.reduce(x * y, axis=-1)


def _project(g: np.ndarray, dg: tuple, n: np.ndarray):
    """Per row, the least-squares scale a* = g.n / g.g of n ~ a * g, and the
    Jacobian of a* * g with respect to each theta, a*'s own dependence on
    theta included.  Each Jacobian column is built in the memory of its dg
    column, which it replaces."""
    gg = _dot(g, g)
    a = _dot(g, n) / gg
    for d in dg:
        da = (_dot(d, n) - 2.0 * a * _dot(d, g)) / gg
        d *= a[:, None]
        d += g * da[:, None]
    return a, dg


def _feasible(model: str, theta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per row: a > 0 in every scaled family, and beta, s > 0.  k and mu are
    unbounded and handled by the degeneracy flags instead."""
    if model in ("stretched_exp", "log_normal"):
        return (a > 0) & (theta[:, 1] > 0)
    return a > 0


def _box(model: str, theta: np.ndarray, t: np.ndarray):
    """Per-row bounds (lo, hi) on theta at its current beta, or None when
    the family is unbounded.  stretched_exp keeps tau within TAU_BOX of the
    time axis, and low enough that x = (t/tau)^beta is at least X_MIN at
    t[0]; every other shape parameter is unbounded."""
    if model != "stretched_exp":
        return None
    beta = theta[:, 1]
    hi = np.empty_like(theta)
    hi[:, 0] = np.minimum(TAU_BOX * t[-1],
                          np.where(beta > 0, t[0] * X_MIN ** (-1.0 / beta), math.inf))
    hi[:, 1] = math.inf
    return np.array([t[0] / TAU_BOX, -math.inf]), hi


def _far_tail(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per log_normal row (m, s): the whole series lies in the CDF's far
    left tail, Phi((ln t[-1] - m) / s) < X_MIN."""
    from scipy.special import ndtr
    return ndtr((math.log(t[-1]) - theta[:, 0]) / theta[:, 1]) < X_MIN


def _start_points(model: str, t: np.ndarray, power_b: float | None) -> list[tuple]:
    if model == "saturating_pl":
        starts = [(k, mu) for k in (0.3, 0.6, 0.9, 1.2, 2.0)
                  for mu in (1e-4, 1e-3, 1e-2, 0.0)]
        return starts + [(power_b, 0.0)]
    if model == "stretched_exp":
        t_end = float(t[-1])
        return [(tau, beta) for tau in (t_end / 10.0, t_end / 3.0, t_end)
                for beta in (0.5, 1.0, 1.5)]
    m0 = float(np.mean(np.log(t)))
    return [(m0, s) for s in (0.5, 1.0, 2.0)]


def _families(models: list, family: np.ndarray) -> list[tuple]:
    """(model, rows) for each block of the stack that still has rows, rows
    being a slice; family, each row's block index, is sorted."""
    edges = np.searchsorted(family, np.arange(len(models) + 1))
    return [(m, slice(lo, hi)) for m, lo, hi in zip(models, edges[:-1], edges[1:])
            if lo < hi]


def _clip_into_boxes(parts: list, theta: np.ndarray, t: np.ndarray) -> list[tuple]:
    """Clip theta, in place, into the bounds of each bounded family's rows,
    and return those bounds as (rows, lo, hi).  The bounds depend only on
    beta, which the clip leaves as it is, so they hold at the clipped theta
    too."""
    boxes = []
    for model, rows in parts:
        bounds = _box(model, theta[rows], t)
        if bounds is not None:
            np.clip(theta[rows], *bounds, out=theta[rows])
            boxes.append((rows, *bounds))
    return boxes


def _stacked(arrays) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _evaluate(parts: list, theta: np.ndarray, boxes: list, t: np.ndarray, n: np.ndarray):
    """Per row at theta: a*, the rss (inf where the row is infeasible or not
    finite), whether the Jacobian of a* * g is finite, and the normal
    equations.  g and dg/dtheta come from each family's own slice; the rest
    runs once over the stack.  No (S, T) array outlives the call."""
    shapes = [_shape(model, theta[rows], t) for model, rows in parts]
    g = _stacked([shape[0] for shape in shapes])
    dg = tuple(_stacked(column) for column in zip(*(shape[1] for shape in shapes)))
    a, jac = _project(g, dg, n)
    resid = n - a[:, None] * g
    rss = _dot(resid, resid)
    for model, rows in parts:
        rss[rows][~_feasible(model, theta[rows], a[rows])] = math.inf
    rss[~np.isfinite(rss)] = math.inf
    finite = np.all([np.isfinite(j).all(axis=1) for j in jac], axis=0)
    return a, rss, finite, _normal_equations(theta, boxes, resid, jac)


def _normal_equations(theta, boxes, resid, jac):
    """Per row: the gradient J'r, the Gauss-Newton matrix J'J, and the
    damping diagonal.  A parameter on its bound that descent would push out
    stays there: its Jacobian column and its gradient entry go to 0."""
    p = len(jac)
    grad = np.empty((len(theta), p))
    hess = np.empty((len(theta), p, p))
    for i in range(p):
        grad[:, i] = _dot(jac[i], resid)
        for j in range(i, p):
            hess[:, i, j] = hess[:, j, i] = _dot(jac[i], jac[j])
    for rows, lo, hi in boxes:
        bounded, slope = theta[rows], grad[rows]
        free = ~(((bounded <= lo) & (slope < 0)) | ((bounded >= hi) & (slope > 0)))
        slope *= free
        hess[rows] = np.where(free[:, :, None] & free[:, None, :], hess[rows], 0.0)
    diag = np.diagonal(hess, axis1=1, axis2=2).copy()
    diag[diag <= 0] = 1.0
    return grad, hess, diag


def _damped_step(grad, hess, diag, lam):
    """Per row, the solution of (J'J + lam * diag) step = J'r by Cramer's
    rule, and whether the system was solvable (a nonzero determinant)."""
    if grad.shape[1] == 1:
        m = hess[:, 0, 0] + lam * diag[:, 0]
        return grad / m[:, None], m != 0
    m00 = hess[:, 0, 0] + lam * diag[:, 0]
    m11 = hess[:, 1, 1] + lam * diag[:, 1]
    m01 = hess[:, 0, 1]
    g0, g1 = grad[:, 0], grad[:, 1]
    det = m00 * m11 - m01 * m01
    step = np.empty_like(grad)
    step[:, 0] = (g0 * m11 - m01 * g1) / det
    step[:, 1] = (m00 * g1 - m01 * g0) / det
    return step, det != 0


def _gauss_newton(blocks, t: np.ndarray, n: np.ndarray):
    """Damped least squares over theta for a stack of rows, with a projected
    out at every point.  blocks is a sequence of (model, theta0), theta0 an
    (S_k, p) array of starts, p the same in every block; its rows are
    stacked in order, and row i fits n, or n[i] when n is (S, T).  Returns
    theta (S, p), a, rss and converged, one value per row of the stack.

    Each row runs its own Levenberg-Marquardt schedule on lambda and has
    MAX_ITER accepted steps.  It converges when a step improves its rss by
    less than RSS_REL_TOL relatively, or when no feasible step improves it
    at all (lambda passes 1e12); a row that spends its budget, or whose
    Jacobian is not finite, does not.  A log_normal row also stops,
    converged, at the first accepted point in the far tail (_far_tail): it
    is flagged degenerate there, and would run on for hundreds of steps
    toward a ~ 1e161.  Each pass evaluates every family's shape on its own
    rows, then solves and evaluates the running rows of the whole stack at
    once; a finished row leaves the working arrays.  Every reduction is
    per row, so a row's arithmetic does not depend on the rest of the stack.
    """
    budget = MAX_ITER
    models = [model for model, _ in blocks]
    starts = [np.asarray(theta0, dtype=float) for _, theta0 in blocks]
    family = np.repeat(np.arange(len(blocks)), [len(s) for s in starts])
    with np.errstate(all="ignore"):
        parts = _families(models, family)
        theta = np.concatenate(starts)
        boxes = _clip_into_boxes(parts, theta, t)
        a, rss, finite, (grad, hess, diag) = _evaluate(parts, theta, boxes, t, n)
        converged = np.zeros(len(theta), dtype=bool)
        # the running rows (suffix _r): their index into the stack and state
        ids = np.flatnonzero(np.isfinite(rss) & finite & (budget > 0))
        theta_r, a_r, rss_r = theta[ids], a[ids], rss[ids]
        grad, hess, diag = grad[ids], hess[ids], diag[ids]
        data = n[ids] if n.ndim == 2 and len(ids) < len(n) else n
        lam = np.full(len(ids), 1e-3)
        steps = np.zeros(len(ids), dtype=int)
        parts = _families(models, family[ids])
        while len(ids):
            step, solvable = _damped_step(grad, hess, diag, lam)
            theta_new = theta_r + step
            boxes = _clip_into_boxes(parts, theta_new, t)
            a_new, rss_new, finite, equations = _evaluate(parts, theta_new, boxes, t, data)
            # a singular system or a step that does not lower the rss
            # raises lambda; past 1e12 no step improves, so the row is done
            better = solvable & (rss_new < rss_r)
            improvement = (rss_r - rss_new) / np.maximum(rss_r, RSS_FLOOR)
            theta_r[better] = theta_new[better]
            a_r[better] = a_new[better]
            rss_r[better] = rss_new[better]
            grad[better], hess[better], diag[better] = (x[better] for x in equations)
            lam = np.where(better, np.maximum(lam / 10.0, 1e-14), lam * 10.0)
            steps += better
            finished = improvement < RSS_REL_TOL
            for model, rows in parts:
                if model == "log_normal":
                    finished[rows] |= _far_tail(theta_new[rows], t)
            done = np.where(better, finished, lam > 1e12)
            stop = done | (better & ((steps >= budget) | ~finite))
            if stop.any():
                out = ids[stop]
                theta[out], a[out], rss[out] = theta_r[stop], a_r[stop], rss_r[stop]
                converged[out] = done[stop]
                keep = ~stop
                ids, theta_r, a_r, rss_r = ids[keep], theta_r[keep], a_r[keep], rss_r[keep]
                grad, hess, diag = grad[keep], hess[keep], diag[keep]
                lam, steps = lam[keep], steps[keep]
                if n.ndim == 2:
                    data = data[keep]
                parts = _families(models, family[ids])
    return theta, a, rss, converged


# ---------------------------------------------------------------------------
# Fitting entry points
# ---------------------------------------------------------------------------

def _linear_stats(model: str, params: dict, series: GrowthSeries):
    pred = predict(model, params, series.t)
    resid = series.n - pred
    rss = float(resid @ resid) if np.all(np.isfinite(resid)) else math.inf
    ss_tot = (float(np.sum((series.n - np.mean(series.n)) ** 2))
              if len(series) else 0.0)
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


def _scored(model: str, params: dict, series: GrowthSeries, degenerate: bool,
            log_r2: float | None = None) -> FitResult:
    """A converged fit of ``params``, scored over the whole series."""
    rss, r2 = _linear_stats(model, params, series)
    aic, bic = _information(rss, len(series), len(PARAM_NAMES[model]))
    return FitResult(model, params, rss, r2, aic, bic, converged=True,
                     degenerate=degenerate, log_r2=log_r2)


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
        return _scored("power_law", params, series, True)
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
    return _scored("power_law", params, series, False, log_r2)


def _fit_linear(series: GrowthSeries) -> FitResult:
    t, n = series.t, series.n
    t_mean, n_mean = float(np.mean(t)), float(np.mean(n))
    var = float(np.sum((t - t_mean) ** 2))
    b = float(np.sum((t - t_mean) * (n - n_mean)) / var) if var > 0 else 0.0
    a = n_mean - b * t_mean
    return _scored("linear", {"a": a, "b": b}, series, False)


def _saturating_degenerate(params: dict) -> bool:
    return (params["mu"] <= 0 or abs(params["k"]) > DEGENERATE_K_MAX
            or abs(params["mu"]) > DEGENERATE_MU_MAX)


def _log_normal_degenerate(params: dict, t: np.ndarray) -> bool:
    """The whole series lies in the CDF's far left tail, where a, m and s
    are not identified (the fit runs off to a ~ 1e161 on power-law data)."""
    return bool(_far_tail(np.array([[params["m"], params["s"]]]), t)[0])


def _best_fit(model: str, series: GrowthSeries, starts: list, theta, a, rss, converged,
              log_r2: float | None = None) -> FitResult:
    """The fit from one family's rows of a solve: the converged row of least
    rss, or the first start with its projected scale when none converged."""
    names = PARAM_NAMES[model]
    if not converged.any():
        with np.errstate(all="ignore"):
            a0, _ = _project(*_shape(model, np.array(starts[:1], dtype=float), series.t),
                             series.n)
        params = dict(zip(names, (float(a0[0]), *starts[0])))
        return FitResult(model, params, math.inf, -math.inf, math.inf, math.inf,
                         converged=False, degenerate=True)
    best = int(np.argmin(np.where(converged, rss, math.inf)))
    params = dict(zip(names, (float(v) for v in (a[best], *theta[best]))))
    degenerate = (_saturating_degenerate(params) if model == "saturating_pl"
                  else _log_normal_degenerate(params, series.t) if model == "log_normal"
                  else False)
    return _scored(model, params, series, degenerate, log_r2)


def _fit_power(series: GrowthSeries) -> FitResult:
    """The closed-form log-log fit, polished in linear space as one solver
    row so that its residuals compare with the other families'.  The log
    fit stands in where it is degenerate or the polish does not converge."""
    log_fit = fit_power_law(series)
    if log_fit.degenerate:
        return log_fit
    starts = [(log_fit.params["b"],)]
    theta, a, rss, converged = _gauss_newton([("power_law", starts)], series.t, series.n)
    if not converged[0]:
        return log_fit
    return _best_fit("power_law", series, starts, theta, a, rss, converged,
                     log_r2=log_fit.log_r2)


def _fit_each(series: GrowthSeries, models) -> list[FitResult]:
    """One fit per model, in order, from at most two solves.  The power law
    comes first, as a candidate and as the seed of saturating_pl's (b, 0)
    start; every start of every other scaled family is then a row of one
    stacked solve, and the line is fitted in closed form."""
    if not len(series):
        raise SeriesError(f"cannot fit {models[0]} to an empty series")
    t, n = series.t, series.n
    power = (_fit_power(series) if "power_law" in models or "saturating_pl" in models
             else None)
    stacked = [m for m in models if m not in ("power_law", "linear")]
    starts = [_start_points(m, t, power.params["b"] if power else None) for m in stacked]
    scaled = []
    if stacked:
        solved = _gauss_newton(list(zip(stacked, starts)), t, n)
        edges = np.cumsum([0] + [len(s) for s in starts])
        scaled = [_best_fit(m, series, s, *(x[lo:hi] for x in solved))
                  for m, s, lo, hi in zip(stacked, starts, edges[:-1], edges[1:])]
    scaled = iter(scaled)
    return [power if m == "power_law" else _fit_linear(series) if m == "linear"
            else next(scaled) for m in models]


def fit_model(model: str, series: GrowthSeries) -> FitResult:
    """Fit one model in linear space: the selection's solves for one family,
    every start of a scaled family's multi-start grid a row of one solve.

    The power law starts from the closed-form log fit's exponent and is
    then polished in linear space so its residuals are comparable with the
    other families' (use fit_power_law directly for the log-OLS exponent).
    """
    return _fit_each(series, (model,))[0]


def select_model(series: GrowthSeries, models=DEFAULT_MODELS) -> list[FitResult]:
    """Fit each model and rank: non-degenerate converged fits by AIC, then
    degenerate fits by AIC, then non-converged fits."""
    if len(models) < 2:
        raise ValueError("select_model needs at least 2 candidate models")
    fits = _fit_each(series, models)
    fits.sort(key=lambda f: ((2 if not f.converged else (1 if f.degenerate else 0)),
                             f.aic))
    return fits


# ---------------------------------------------------------------------------
# Bootstrap and forecasting
# ---------------------------------------------------------------------------

@dataclass
class BootstrapResult:
    intervals: dict[str, tuple[float, float, float]]  # name -> (lo95, hi95, point)
    fraction_failed: float
    degenerate: bool


def bootstrap_ci(model: str, series: GrowthSeries, n_resamples: int = 500,
                 seed: int = 0) -> BootstrapResult:
    """Residual-resampling confidence intervals around a converged base fit.

    Residuals of the base fit are resampled with replacement, added back to
    the fitted curve (clipped below at 0), and refit from the base fit's
    shape parameters; the 2.5/97.5 percentiles over converged resamples form
    the intervals.  n_resamples below 1 raises ValueError.
    """
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    base = fit_model(model, series)
    if not base.converged:
        raise ValueError(f"{model}: base fit did not converge")
    t = series.t
    fitted = base.predict(t)
    resid = series.n - fitted
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    names = PARAM_NAMES[model]
    # one draw per resample, in order, as a per-resample loop would make
    synthetic = resid[np.array([rng.integers(0, len(t), size=len(t))
                                for _ in range(n_resamples)],
                               dtype=np.intp).reshape(n_resamples, len(t))]
    synthetic += fitted
    np.clip(synthetic, 0.0, None, out=synthetic)
    if model == "linear":
        fits = [_fit_linear(GrowthSeries(t, row)) for row in synthetic]
        values = np.array([[fit.params[name] for name in names] for fit in fits],
                          dtype=float)
        converged = np.ones(n_resamples, dtype=bool)
    else:
        theta0 = np.repeat([_theta(model, base.params)], n_resamples, axis=0)
        theta, a, _, converged = _gauss_newton([(model, theta0)], t, synthetic)
        values = np.column_stack([a, theta])
        if model == "power_law":
            # as in fit_model: the log-OLS fit stands in for a degenerate
            # series or an unconverged polish
            for r, row in enumerate(synthetic):
                log_fit = fit_power_law(GrowthSeries(t, row))
                if log_fit.degenerate or not converged[r]:
                    values[r] = [log_fit.params[name] for name in names]
                    converged[r] = True
    draws = values[converged]
    fraction_failed = (n_resamples - len(draws)) / n_resamples
    intervals = {}
    if len(draws):
        lo = np.percentile(draws, 2.5, axis=0)
        hi = np.percentile(draws, 97.5, axis=0)
        for i, name in enumerate(names):
            intervals[name] = (float(lo[i]), float(hi[i]), base.params[name])
    else:
        for name in names:
            intervals[name] = (math.nan, math.nan, base.params[name])
    degenerate = fraction_failed > 0.5 or base.degenerate
    return BootstrapResult(intervals, fraction_failed, degenerate)


@dataclass
class ForecastResult:
    model: str
    split: int
    rmse_oos: float
    mape_oos: float


def oos_forecast(series: GrowthSeries, split: int,
                 models=DEFAULT_MODELS) -> list[ForecastResult]:
    """Fit each model on the first ``split`` points, score on the rest."""
    if not 4 <= split < len(series):
        raise ValueError("split must be in [4, len(series))")
    prefix = series.prefix(split)
    t_tail = series.t[split:]
    n_tail = series.n[split:]
    out = []
    for model, fit in zip(models, _fit_each(prefix, models)):
        if not fit.converged:
            out.append(ForecastResult(model, split, math.inf, math.inf))
            continue
        pred = fit.predict(t_tail)
        err = pred - n_tail
        if not np.all(np.isfinite(err)):
            rmse = mape = math.inf
        else:
            rmse = float(np.sqrt(np.mean(err ** 2)))
            pos = n_tail > 0
            mape = float(np.mean(np.abs(err[pos]) / n_tail[pos])) if np.any(pos) else math.inf
        out.append(ForecastResult(model, split, rmse, mape))
    return out
