import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqgrow.closure import (
    ClosureParams, closed_form_power, coverage_fraction, estimate_mu,
    growth_rate, integrate_closure, power_law_exponent, root_instances,
    simulate_ode,
)
from eqgrow.engine import ArchConfig, Rule, run_discovery
from eqgrow.terms import (ARITH, BOOL, BOOLDOM, FUN1, FUN2, INT, INTLIST,
                          LIST, PRED, app, enumerate_terms, match,
                          parse_term, substitute, unify, var)


def pattern_rule(spec, lhs_text, rhs_text):
    lhs = parse_term(spec, lhs_text)
    sorts = {}
    stack = [lhs]
    while stack:
        t = stack.pop()
        if t.kind == "var" and t.label[0].isupper():
            sorts[t.label] = t.sort
        stack.extend(t.args)
    return Rule(lhs, parse_term(spec, rhs_text, var_sorts=sorts), 0, 0)


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

def test_constant_rate_limit():
    series = simulate_ode(ClosureParams(2.0, 0.0, 0.0), 100, 0.5)
    assert np.max(np.abs(series.n - 2.0 * series.t)) < 1e-9


@pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 0.75])
def test_matches_closed_form_at_t100(k):
    series = simulate_ode(ClosureParams(1.0, k, 0.0), 100, 0.01)
    exact = closed_form_power(1.0, k, 100.0)
    assert abs(series.n[-1] - exact) / exact < 1e-3


def test_rate_suppression_at_knee_scale():
    suppressed = growth_rate(ClosureParams(1.0, 0.9, 0.001), 1000.0)
    free = growth_rate(ClosureParams(1.0, 0.9, 0.0), 1000.0)
    assert suppressed / free == pytest.approx(math.exp(-1.0))


def test_rk4_order_of_convergence():
    params = ClosureParams(1.0, 0.9, 0.0, n0=1.0)
    exact = closed_form_power(1.0, 0.9, 100.0, n0=1.0)
    err_coarse = abs(integrate_closure(params, [100.0], 0.25)[0] - exact)
    err_fine = abs(integrate_closure(params, [100.0], 0.125)[0] - exact)
    assert 10.0 < err_coarse / err_fine < 22.0


def test_monotone_growth():
    for params in (ClosureParams(1.0, 0.5, 0.001), ClosureParams(3.0, 0.0, 0.01),
                   ClosureParams(0.5, 0.9, 0.002, n0=5.0)):
        series = simulate_ode(params, 200, 0.1)
        assert np.all(np.diff(series.n) > 0)


def test_short_range_agreement_when_coverage_negligible():
    params = ClosureParams(1.0, 0.5, 1e-6)
    series = simulate_ode(params, 100, 0.01)
    exact = closed_form_power(1.0, 0.5, series.t)
    assert params.coverage * series.n[-1] < 0.01
    assert np.max(np.abs(series.n - exact) / exact) < 0.01


def test_params_reject_negative_throughput_and_a_singular_origin():
    with pytest.raises(ValueError, match="throughput"):
        ClosureParams(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="n0 > 0"):
        ClosureParams(1.0, -0.5, 0.0)
    series = simulate_ode(ClosureParams(1.0, -0.5, 0.0, n0=1.0), 5, 0.1)
    assert np.all(np.diff(series.n) > 0)


def test_diverging_ode_names_the_time():
    with pytest.raises(ValueError, match=r"diverged before t = 2\.04"):
        simulate_ode(ClosureParams(1.0, 1.5, 0.0, n0=1.0), 50, 0.01)


def test_saturation_bends_below_power_law():
    series = simulate_ode(ClosureParams(1.0, 0.5, 0.01), 400, 0.05)
    exact = closed_form_power(1.0, 0.5, 400.0)
    assert series.n[-1] < 0.8 * exact


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_linear_limit():
    assert closed_form_power(3.0, 0.0, 7.0) == pytest.approx(21.0)


def test_closed_form_square_case():
    assert closed_form_power(1.0, 0.5, 8.0) == pytest.approx(16.0)
    assert power_law_exponent(0.5) == pytest.approx(2.0)


def test_exponent_helper():
    assert power_law_exponent(0.9) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        closed_form_power(1.0, 1.0, 5.0)
    with pytest.raises(ValueError):
        power_law_exponent(1.2)


def test_knee():
    assert ClosureParams(1.0, 0.5, 0.002).knee == pytest.approx(500.0)
    assert math.isinf(ClosureParams(1.0, 0.5, 0.0).knee)


def test_knee_bracket_for_reported_band():
    # coverage in [0.0006, 0.0011] puts the knee inside [909, 1667]
    for mu in (0.0006, 0.0008, 0.0011):
        assert 909.0 <= ClosureParams(1.0, 0.9, mu).knee <= 1667.0


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_universal_pattern_covers_everything():
    rule = Rule(var("A", INT), var("A", INT), 0, 0)
    assert coverage_fraction(rule, ARITH, 2) == 1.0


def test_concrete_term_covers_one():
    rule = pattern_rule(ARITH, "(+ x 0)", "x")
    assert coverage_fraction(rule, ARITH, 2) == pytest.approx(1.0 / 78.0)


def test_root_plus_pattern_golden():
    rule = pattern_rule(ARITH, "(+ A B)", "A")
    assert coverage_fraction(rule, ARITH, 2) == pytest.approx(36.0 / 78.0)


def test_coverage_monotone_under_instantiation():
    broad = pattern_rule(ARITH, "(+ A B)", "A")
    rng = np.random.default_rng(0)
    for leaf_text in ("x", "0", "2"):
        leaf = parse_term(ARITH, leaf_text)
        narrowed = Rule(substitute(broad.lhs, {"B": leaf}, partial=True),
                        broad.rhs, 0, 0)
        assert (coverage_fraction(narrowed, ARITH, 2)
                <= coverage_fraction(broad, ARITH, 2))


def test_subterm_position_variant_not_smaller():
    rule = pattern_rule(ARITH, "(+ A 0)", "A")
    root = coverage_fraction(rule, ARITH, 3)
    anywhere = coverage_fraction(rule, ARITH, 3, subterm_positions=True)
    assert anywhere >= root


def test_estimate_mu_single_universal_rule():
    report = estimate_mu([var("A", INT)], ARITH, 2)
    assert report.mu_hat == 1.0
    assert report.overlap[0, 0] == 1.0


def test_disjoint_roots_zero_overlap():
    r1 = pattern_rule(ARITH, "(+ A B)", "A")
    r2 = pattern_rule(ARITH, "(* A B)", "A")
    report = estimate_mu([r1.lhs, r2.lhs], ARITH, 2)
    assert report.overlap[0, 1] == 0.0
    assert report.overlap[0, 0] == report.overlap[1, 1] == 1.0
    assert all(0.0 <= f <= 1.0 for f in report.fractions)


def test_cross_substrate_coverage_ordering():
    """Flat-typed substrates carry higher per-rule coverage than the
    higher-order list domain at matching depth."""
    bool_rules = run_discovery(ArchConfig("bool", "random", "any", 3, 80, 0,
                                          30)).rules[:40]
    list_rules = run_discovery(ArchConfig("list", "random", "any", 3, 80, 0,
                                          30)).rules[:40]
    bool_report = estimate_mu([r.lhs for r in bool_rules], BOOLDOM, 3)
    list_report = estimate_mu([r.lhs for r in list_rules], LIST, 3)
    assert bool_report.mu_hat > list_report.mu_hat
    assert np.all(bool_report.overlap >= 0) and np.all(bool_report.overlap <= 1)
    assert np.all(list_report.overlap >= 0) and np.all(list_report.overlap <= 1)


def test_coverage_runs_beyond_the_enumeration_cap():
    lhs = parse_term(ARITH, "(+ A (* B A))")
    # A fits in depth 3 below its deepest occurrence, B in depth 3 as well
    assert root_instances(lhs, ARITH, 5) == 12174 * 12174
    report = estimate_mu([lhs, parse_term(ARITH, "(+ A B)")], ARITH, 5)
    depth4 = 6 + 2 * 12174 ** 2
    assert report.space_size == 6 + 2 * depth4 ** 2
    assert 0.0 < report.fractions[0] < report.fractions[1] < 1.0
    assert report.overlap[0, 1] == 1.0   # every (+ A (* B A)) is a (+ A B)


def test_unify_occurs_check_and_sorts():
    a_int = var("A", INT)
    assert unify(a_int, parse_term(ARITH, "(+ A 0)")) is None
    assert unify(parse_term(ARITH, "(+ A (+ A B))"),
                 parse_term(ARITH, "(+ C C)", sort=INT)) is None
    assert unify(var("C", INTLIST), var("A", INT)) is None
    assert unify(parse_term(ARITH, "(+ A x)"),
                 parse_term(ARITH, "(+ y B)")).text == "(+ y x)"


# ---------------------------------------------------------------------------
# closed-form coverage against enumeration
# ---------------------------------------------------------------------------

# Enumerations and coverage sets shared by every example, so that the
# reference costs one scan per distinct pattern instead of one per draw.
_SPACES: dict = {}
_COVERS: dict = {}


def _space(spec, sort, depth):
    key = (spec.domain_id, sort, depth)
    if key not in _SPACES:
        _SPACES[key] = enumerate_terms(spec, sort, depth)
    return _SPACES[key]


def _cover(spec, lhs, depth):
    """Indexes of the enumerated terms the pattern matches at the root."""
    key = (spec.domain_id, lhs, depth)
    if key not in _COVERS:
        _COVERS[key] = frozenset(i for i, t in enumerate(_space(spec, lhs.sort, depth))
                                 if match(lhs, t) is not None)
    return _COVERS[key]


def reference_mu(lhss, spec, depth):
    """The enumerate-and-match estimate the closed-form count replaced:
    (fractions, overlap, space_size) from sets of enumerated indexes."""
    covers = [_cover(spec, lhs, depth) for lhs in lhss]
    fractions = [len(c) / len(_space(spec, lhs.sort, depth))
                 for lhs, c in zip(lhss, covers)]
    n = len(lhss)
    overlap = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            denom = min(len(covers[i]), len(covers[j]))
            if denom and lhss[i].sort == lhss[j].sort:
                overlap[i, j] = overlap[j, i] = len(covers[i] & covers[j]) / denom
    space_size = sum(len(_space(spec, sort, depth))
                     for sort in {lhs.sort for lhs in lhss})
    return fractions, overlap, space_size


COVER_VARS = {INT: ("A", "B"), BOOL: ("A", "B"), INTLIST: ("C", "D"),
              FUN1: ("F",), PRED: ("P",), FUN2: ("G",)}


def _renamed_apart(lhs):
    names = {}
    stack = [lhs]
    while stack:
        t = stack.pop()
        if t.kind == "var" and t.label[0].isupper():
            names[t.label] = var(t.label + "2", t.sort)
        stack.extend(t.args)
    return substitute(lhs, names)


@st.composite
def _patterns(draw, spec, sort, depth):
    """A pattern of depth <= ``depth``: operators, constants, substrate
    variables, prims and a few pattern variables, so repeats are common."""
    ops = spec.ops_by_result.get(sort, ())
    if depth > 1 and ops and draw(st.booleans()):
        op = draw(st.sampled_from(ops))
        return app(op, [draw(_patterns(spec, s, depth - 1)) for s in op.arg_sorts])
    return draw(st.sampled_from(list(spec.leaves_by_sort.get(sort, ()))
                                + [var(n, sort) for n in COVER_VARS[sort]]))


@st.composite
def coverage_problems(draw):
    """(spec, depth, left sides): arith and bool spaces at depth <= 3, list
    at depth <= 2, with patterns up to one level deeper than the space."""
    spec = draw(st.sampled_from((ARITH, BOOLDOM, LIST)))
    depth = draw(st.integers(1, 2 if spec is LIST else 3))
    lhss = [draw(_patterns(spec, draw(st.sampled_from(spec.principal_sorts)),
                           draw(st.integers(1, depth + 1))))
            for _ in range(draw(st.integers(1, 4)))]
    return spec, depth, lhss


def _problem(spec, depth, *texts):
    return spec, depth, [parse_term(spec, text, sort=spec.principal_sorts[0])
                         for text in texts]


@settings(max_examples=300, deadline=None)
@given(problem=coverage_problems())
@example(problem=_problem(ARITH, 3, "(+ A A)", "(+ A (* B A))", "(+ (* x B) A)"))
@example(problem=_problem(ARITH, 3, "(+ A (+ A B))", "(+ C C)", "A"))  # occurs check
@example(problem=_problem(BOOLDOM, 3, "(and A (not A))", "(and (not B) B)", "1"))
@example(problem=_problem(ARITH, 2, "(+ (+ A 0) B)", "(* A 2)"))  # too deep, disjoint
@example(problem=_problem(LIST, 2, "(map F C)", "(map inc (append C C))",
                          "(reverse C)"))
def test_closed_form_coverage_matches_enumeration(problem):
    spec, depth, lhss = problem
    fractions, overlap, space_size = reference_mu(lhss, spec, depth)
    report = estimate_mu(lhss, spec, depth)
    assert report.fractions == fractions
    assert np.array_equal(report.overlap, overlap)
    assert report.space_size == space_size
    for p in lhss:
        for q in lhss:
            if p.sort != q.sort:
                continue
            q2 = _renamed_apart(q)
            both = unify(p, q2)
            common = set() if both is None else _cover(spec, both, depth)
            assert _cover(spec, p, depth) & _cover(spec, q2, depth) == common
