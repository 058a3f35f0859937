"""Mean-field closure dynamics and rule-coverage estimation.

The growth rate of a rule substrate of size S is modeled as

    dS/dt = K * S^k * exp(-coverage * S)

where K is generator throughput, k the recombination exponent, and
``coverage`` the expected fraction of the typed candidate space a committed
rule rewrites.  With coverage = 0 the ODE integrates to the pure power law
S(t) = ((1-k) K t)^(1/(1-k)).  Coverage itself is the share of the depth-d
term space a rule's left side matches at the root.  That share is counted
in closed form, not by enumeration: a left side's instances are the product,
over its distinct pattern variables, of the terms of that variable's sort
that fit below its deepest occurrence, and two left sides share exactly the
instances of their most general unifier (Baader & Nipkow, *Term Rewriting
and All That*, ch. 4).  So any depth is cheap; only the subterm-position
variant enumerates, and is capped like every enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .growth import GrowthSeries
from .terms import (SubstrateSpec, Term, count_terms, enumerate_terms, match,
                    substitute, unify, var)

N0_LIFT = 1e-12  # lifts the S = 0 fixed point when k > 0


@dataclass(frozen=True)
class ClosureParams:
    throughput: float      # K
    exponent: float        # k
    coverage: float        # mu
    n0: float = 0.0

    def __post_init__(self):
        if self.throughput < 0:
            raise ValueError("throughput must be non-negative")
        if self.coverage < 0:
            raise ValueError("coverage must be non-negative")
        if self.n0 < 0:
            raise ValueError("n0 must be non-negative")
        if self.exponent < 0 and self.n0 == 0:
            raise ValueError("a negative exponent needs n0 > 0")

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
    return s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


ORIGIN_REFINE = 100  # finer steps over t in [0, 1]; S^k is non-smooth at S ~ 0


def integrate_closure(params: ClosureParams, t_grid, dt: float) -> np.ndarray:
    """RK4 values of S at the requested time points (t_grid ascending from 0).

    With K >= 0 every RK4 stage is at least S, so S never decreases; a step
    that overflows raises ValueError naming the time it reached.
    """
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
            # a Python float step keeps S one, so an overflow raises, not warns
            step = min(step, float(target) - t)
            try:
                s = _rk4_step(params, s, step)
            except OverflowError:
                s = math.inf
            t += step
            if not math.isfinite(s):
                raise ValueError(f"closure ODE diverged before t = {t:.6g}")
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


def _pattern_vars(lhs: Term) -> dict[str, tuple[str, int]]:
    """Each pattern variable's sort and the deepest level it occurs at
    (the root is level 1)."""
    out: dict[str, tuple[str, int]] = {}
    stack = [(lhs, 1)]
    while stack:
        t, level = stack.pop()
        if t.kind == "var" and t.label[0].isupper():
            deepest = out.get(t.label, (t.sort, 0))[1]
            out[t.label] = (t.sort, max(deepest, level))
        stack.extend((a, level + 1) for a in t.args)
    return out


def root_instances(lhs: Term, spec: SubstrateSpec, depth: int) -> int:
    """How many depth-``depth`` terms of the left side's sort it matches at
    the root: per distinct pattern variable, the terms of its sort that fit
    in the depth left at its deepest occurrence, multiplied together."""
    if lhs.depth > depth:
        return 0
    return math.prod(count_terms(spec, sort, depth - level + 1)
                     for sort, level in _pattern_vars(lhs).values())


def _renamed_apart(lhs: Term) -> Term:
    return substitute(lhs, {name: var(name + "'", sort)
                            for name, (sort, _) in _pattern_vars(lhs).items()})


def _matches_anywhere(lhs: Term, term: Term) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if match(lhs, t) is not None:
            return True
        stack.extend(t.args)
    return False


def coverage_fraction(rule, spec: SubstrateSpec, depth: int,
                      subterm_positions: bool = False) -> float:
    """One rule's coverage fraction; see estimate_mu."""
    return estimate_mu([rule.lhs], spec, depth,
                       subterm_positions=subterm_positions).fractions[0]


def estimate_mu(lhss: list[Term], spec: SubstrateSpec, depth: int,
                subterm_positions: bool = False) -> CoverageReport:
    """Mean coverage fraction over rule left sides plus pairwise overlap.

    Root coverage is counted in closed form (root_instances); two left sides
    of one sort share exactly the instances of their most general unifier.
    ``subterm_positions`` widens coverage to the terms containing an
    instance anywhere, for sensitivity checks; that has no closed form, so
    it enumerates the space once per distinct sort.  Overlap is normalized
    by the smaller coverage, giving a [0, 1] dependence score; disjoint
    coverage scores 0, nesting scores 1.  The space size sums the term
    counts of the distinct left-side sorts.
    """
    if not lhss:
        raise ValueError("estimate_mu needs at least one rule")
    sorts = {lhs.sort for lhs in lhss}
    totals = {sort: count_terms(spec, sort, depth) for sort in sorts}
    if subterm_positions:
        spaces = {sort: enumerate_terms(spec, sort, depth) for sort in sorts}
        covers = [{i for i, t in enumerate(spaces[lhs.sort])
                   if _matches_anywhere(lhs, t)} for lhs in lhss]
        sizes = [len(cov) for cov in covers]

        def common(i: int, j: int) -> int:
            return len(covers[i] & covers[j])
    else:
        sizes = [root_instances(lhs, spec, depth) for lhs in lhss]

        def common(i: int, j: int) -> int:
            both = unify(lhss[i], _renamed_apart(lhss[j]))
            return 0 if both is None else root_instances(both, spec, depth)
    fractions = [size / totals[lhs.sort] for lhs, size in zip(lhss, sizes)]
    n = len(lhss)
    overlap = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            denom = min(sizes[i], sizes[j])
            if denom and lhss[i].sort == lhss[j].sort:
                overlap[i, j] = overlap[j, i] = common(i, j) / denom
    return CoverageReport(fractions=fractions,
                          mu_hat=float(np.mean(fractions)),
                          overlap=overlap, depth=depth,
                          space_size=sum(totals.values()))
