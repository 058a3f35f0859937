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
                    pattern_variables, substitute, unify, var)

N0_LIFT = 1e-12  # lifts the S = 0 fixed point when k > 0


@dataclass(frozen=True)
class ClosureParams:
    throughput: float      # K
    exponent: float        # k
    coverage: float        # mu
    n0: float = 0.0

    def __post_init__(self):
        for name in ("throughput", "exponent", "coverage", "n0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.throughput < 0:
            raise ValueError("throughput must be non-negative")
        if self.coverage < 0:
            raise ValueError("coverage must be non-negative")
        if self.n0 < 0:
            raise ValueError("n0 must be non-negative")
        if self.exponent < 0 and self.n0 == 0:
            raise ValueError("a negative exponent needs n0 > 0")


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
STEP_CAP = 10_000_000  # most steps an integration may plan


def integrate_closure(params: ClosureParams, t_grid, dt: float) -> np.ndarray:
    """RK4 values of S at the requested time points (t_grid ascending from 0).

    With K >= 0 every RK4 stage is at least S, so S never decreases; a step
    that overflows raises ValueError naming the time it reached.  A dt or
    time point that is not a finite number raises ValueError.
    """
    if not dt > 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not all(map(math.isfinite, t_grid)):
        raise ValueError("time points must be finite")
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
    """Integrate the closure ODE and sample at unit time spacing, from t = 1
    to t_end; a t_end below 1 or not finite, or one more than STEP_CAP
    steps away, raises ValueError before any step."""
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < 1:
        raise ValueError(f"t_end must be at least 1, got {t_end}")
    # a step never passes a sample point, so at least one step per unit
    steps = t_end / min(dt, 1.0) if dt > 0 else 0.0
    if steps > STEP_CAP:
        raise ValueError(f"t_end {t_end:g} at dt {dt:g} needs {steps:.3g} "
                         f"steps, over {STEP_CAP}")
    t_grid = np.arange(1.0, math.floor(t_end) + 1.0)
    values = integrate_closure(params, t_grid, dt)
    return GrowthSeries(t_grid, values)


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
    space_size: int


def root_instances(lhs: Term, spec: SubstrateSpec, depth: int) -> int:
    """How many depth-``depth`` terms of the left side's sort it matches at
    the root: 0 when the left side is deeper than ``depth``, else, per
    distinct pattern variable, the terms of its sort that fit in the least
    depth left at any of its occurrences, multiplied together."""
    least: dict[tuple[str, str], int] = {}  # (name, sort): least depth left
    stack = [(lhs, depth)]
    while stack:
        t, left = stack.pop()
        if left < 1:
            return 0
        if t.kind == "pvar":
            key = (t.label, t.sort)
            least[key] = min(left, least.get(key, left))
        stack.extend((a, left - 1) for a in t.args)
    return math.prod(count_terms(spec, sort, left) for (_, sort), left in least.items())


def _renamed_apart(lhs: Term) -> Term:
    return substitute(lhs, {name: var(name + "'", sort)
                            for name, sort in pattern_variables(lhs).items()})


def _matches_anywhere(lhs: Term, term: Term) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if match(lhs, t) is not None:
            return True
        stack.extend(t.args)
    return False


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
        apart = [_renamed_apart(lhs) for lhs in lhss]

        def common(i: int, j: int) -> int:
            both = unify(lhss[i], apart[j])
            return 0 if both is None else root_instances(both, spec, depth)
    fractions = [size / totals[lhs.sort] for lhs, size in zip(lhss, sizes)]
    n = len(lhss)
    overlap = np.zeros((n, n))
    # a rule that covers nothing overlaps nothing: only covering rules of
    # one sort are paired
    covering: dict[str, list[int]] = {}
    for i, (lhs, size) in enumerate(zip(lhss, sizes)):
        if size:
            covering.setdefault(lhs.sort, []).append(i)
    for group in covering.values():
        for k, i in enumerate(group):
            for j in group[k:]:
                overlap[i, j] = overlap[j, i] = common(i, j) / min(sizes[i], sizes[j])
    return CoverageReport(fractions=fractions,
                          mu_hat=float(np.mean(fractions)),
                          overlap=overlap, space_size=sum(totals.values()))
