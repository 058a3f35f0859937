"""Mean-field closure dynamics and rule-coverage estimation.

The growth rate of a rule substrate of size S is modeled as

    dS/dt = K * S^k * exp(-coverage * S)

where K is generator throughput, k the recombination exponent, and
``coverage`` the expected fraction of the typed candidate space a committed
rule rewrites.  With coverage = 0 the ODE integrates to the pure power law
S(t) = ((1-k) K t)^(1/(1-k)).  Coverage itself is estimated empirically by
counting, over the enumerated term space at a fixed depth, how many terms a
rule's left side matches at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .growth import GrowthSeries
from .terms import SubstrateSpec, Term, count_terms, enumerate_terms, match

N0_LIFT = 1e-12  # lifts the S = 0 fixed point when k > 0


@dataclass(frozen=True)
class ClosureParams:
    throughput: float      # K
    exponent: float        # k
    coverage: float        # mu
    n0: float = 0.0

    def __post_init__(self):
        if self.coverage < 0:
            raise ValueError("coverage must be non-negative")
        if self.n0 < 0:
            raise ValueError("n0 must be non-negative")

    @property
    def knee(self) -> float:
        """Substrate size where coverage suppression bends the curve."""
        if self.coverage <= 0:
            return math.inf
        return 1.0 / self.coverage


def growth_rate(params: ClosureParams, size: float) -> float:
    """dS/dt at substrate size S."""
    return (params.throughput * size ** params.exponent
            * math.exp(-params.coverage * size))


def _rk4_step(params: ClosureParams, s: float, dt: float) -> float:
    k1 = growth_rate(params, s)
    k2 = growth_rate(params, s + 0.5 * dt * k1)
    k3 = growth_rate(params, s + 0.5 * dt * k2)
    k4 = growth_rate(params, s + dt * k3)
    new = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert new >= 0.0, "RK4 stepped below zero"
    return new


ORIGIN_REFINE = 100  # finer steps over t in [0, 1]; S^k is non-smooth at S ~ 0


def integrate_closure(params: ClosureParams, t_grid, dt: float) -> np.ndarray:
    """RK4 values of S at the requested time points (t_grid ascending from 0)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    s = params.n0
    if s == 0.0 and params.exponent > 0:
        s = N0_LIFT
    out = []
    t = 0.0
    for target in t_grid:
        while t < target - 1e-12:
            step = dt / ORIGIN_REFINE if t < 1.0 else dt
            step = min(step, target - t)
            s = _rk4_step(params, s, step)
            t += step
        out.append(s)
    return np.array(out)


def simulate_ode(params: ClosureParams, t_end: float, dt: float) -> GrowthSeries:
    """Integrate the closure ODE and sample at unit time spacing."""
    t_grid = np.arange(1.0, math.floor(t_end) + 1.0)
    values = integrate_closure(params, t_grid, dt)
    return GrowthSeries(t_grid, values)


def closed_form_power(throughput: float, exponent: float, t,
                      n0: float = 0.0) -> float | np.ndarray:
    """Short-range closed form S(t) = ((1-k) K t + n0^(1-k))^(1/(1-k)).

    Valid only for exponent < 1; the default n0 = 0 is the textbook form.
    """
    if exponent >= 1:
        raise ValueError("closed form requires exponent k < 1")
    one_minus = 1.0 - exponent
    base = one_minus * throughput * np.asarray(t, dtype=float) + n0 ** one_minus
    result = base ** (1.0 / one_minus)
    return float(result) if np.ndim(t) == 0 else result


def power_law_exponent(exponent: float) -> float:
    """The observed log-log slope b = 1/(1-k) implied by recombination k."""
    if exponent >= 1:
        raise ValueError("b = 1/(1-k) requires k < 1")
    return 1.0 / (1.0 - exponent)


# ---------------------------------------------------------------------------
# Coverage estimation
# ---------------------------------------------------------------------------

@dataclass
class CoverageReport:
    fractions: list[float]            # per-rule |Cov| / |T_d|
    mu_hat: float                     # mean fraction
    overlap: np.ndarray               # O_ij = |Cov_i & Cov_j| / min(|Cov_i|,|Cov_j|)
    depth: int
    space_size: int


def coverage_set(lhs: Term, spec: SubstrateSpec, depth: int,
                 cap: int = 10_000_000, subterm_positions: bool = False) -> set[int]:
    """Indices of enumerated depth-``depth`` terms the pattern covers.

    Default coverage counts root-position instances of the pattern; the
    ``subterm_positions`` flag widens it to terms containing an instance
    anywhere, for sensitivity checks.
    """
    space = enumerate_terms(spec, lhs.sort, depth, cap=cap)
    covered = set()
    for i, term in enumerate(space):
        if subterm_positions:
            if _matches_anywhere(lhs, term):
                covered.add(i)
        else:
            if match(lhs, term) is not None:
                covered.add(i)
    return covered


def _matches_anywhere(lhs: Term, term: Term) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if match(lhs, t) is not None:
            return True
        stack.extend(t.args)
    return False


def coverage_fraction(rule, spec: SubstrateSpec, depth: int,
                      cap: int = 10_000_000,
                      subterm_positions: bool = False) -> float:
    lhs = rule.lhs if hasattr(rule, "lhs") else rule
    covered = coverage_set(lhs, spec, depth, cap=cap,
                           subterm_positions=subterm_positions)
    return len(covered) / count_terms(spec, lhs.sort, depth)


def estimate_mu(rules, spec: SubstrateSpec, depth: int,
                cap: int = 10_000_000,
                subterm_positions: bool = False) -> CoverageReport:
    """Mean coverage fraction over committed rules plus pairwise overlap.

    Overlap is normalized by the smaller coverage set, giving a [0, 1]
    dependence score; disjoint coverage scores 0, nesting scores 1.  The
    space size sums the term counts of the distinct left-side sorts.
    """
    if not rules:
        raise ValueError("estimate_mu needs at least one rule")
    sets = []
    fractions = []
    for rule in rules:
        lhs = rule.lhs if hasattr(rule, "lhs") else rule
        cov = coverage_set(lhs, spec, depth, cap=cap,
                           subterm_positions=subterm_positions)
        sets.append((lhs.sort, cov))
        fractions.append(len(cov) / count_terms(spec, lhs.sort, depth))
    n = len(rules)
    overlap = np.zeros((n, n))
    for i in range(n):
        sort_i, cov_i = sets[i]
        for j in range(i, n):
            sort_j, cov_j = sets[j]
            denom = min(len(cov_i), len(cov_j))
            if denom == 0 or sort_i != sort_j:
                value = 0.0
            else:
                value = len(cov_i & cov_j) / denom
            overlap[i, j] = overlap[j, i] = value
    space_size = sum(count_terms(spec, sort, depth)
                     for sort in {sort for sort, _ in sets})
    return CoverageReport(fractions=fractions,
                          mu_hat=float(np.mean(fractions)),
                          overlap=overlap, depth=depth,
                          space_size=space_size)
