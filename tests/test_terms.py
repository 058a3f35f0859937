import ast
import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqgrow.engine import (
    ArchConfig, _config_rng, _environments, _grow, sample_env,
)
from eqgrow import terms
from eqgrow.terms import (
    ARITH, BOOL, BOOLDOM, EnumerationTooLarge, FUN1, INT, INTLIST, LIST,
    MEANINGS, PRED, SUBSTRATES, Term, app, const, count_terms, enumerate_terms,
    evaluate, evaluate_each, TermError, generalize, match, parse_term,
    pattern_variables, subterms, substitute, var,
)


def T(spec, text):
    return parse_term(spec, text)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_identity_case():
    assert evaluate(T(ARITH, "(+ x 0)"), {"x": 7}) == 7


def test_eval_contradiction():
    assert evaluate(T(BOOLDOM, "(and p (not p))"), {"p": True}) is False


def test_eval_map_inc():
    term = T(LIST, "(map inc (cons 1 (cons 2 [])))")
    assert evaluate(term, {}) == (2, 3)


def test_eval_list_ops_total_on_empty():
    assert evaluate(T(LIST, "(fold + x [])"), {"x": 9}) == 9
    assert evaluate(T(LIST, "(map inc [])"), {}) == ()
    assert evaluate(T(LIST, "(filter is_pos [])"), {}) == ()


def test_eval_fold_left_to_right():
    term = T(LIST, "(fold - 0 (cons 1 (cons 2 (cons 2 []))))")
    assert evaluate(term, {}) == ((0 - 1) - 2) - 2


def test_eval_unbound_variable_raises():
    from eqgrow.terms import EvalError
    with pytest.raises(EvalError):
        evaluate(T(ARITH, "(+ x y)"), {"x": 1})


def test_a_bare_primitive_evaluates_to_its_meaning():
    envs = [{"x": 1}, {"x": -4}]
    for name, sort in LIST.prims:
        leaf = T(LIST, name)
        assert (leaf.kind, leaf.label, leaf.sort) == ("const", name, sort)
        assert evaluate(leaf, {}) is MEANINGS[name]
        assert evaluate_each(leaf, envs, {}) == (MEANINGS[name],) * 2
    assert evaluate(T(LIST, "(fold * 1 (cons 2 (cons x [])))"), {"x": -4}) == -8


def test_eval_deterministic():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(50):
        term = _grow(LIST, INTLIST, 4, rng)
        env = sample_env(LIST, rng)
        assert evaluate(term, env) == evaluate(term, env)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       domain=st.sampled_from(sorted(SUBSTRATES)))
def test_lifted_walk_equals_one_evaluate_per_environment(seed, domain):
    """One memo shared by an epoch's worth of terms and their subterms, as
    in the discovery loop: every tuple is each environment's ``evaluate``.
    The boolean domain's environments are all 8 assignments, the others'
    are sampled."""
    spec = SUBSTRATES[domain]
    rng = np.random.Generator(np.random.Philox(seed))
    envs = list(_environments(spec, rng))
    memo = {}
    for _ in range(20):
        for sort in spec.principal_sorts:
            term = _grow(spec, sort, 4, rng)
            for t in [term] + subterms(term):
                assert (evaluate_each(t, envs, memo)
                        == tuple(evaluate(t, e) for e in envs))
    assert memo


def test_lifted_walk_of_a_leaf_and_an_unbound_variable():
    envs = [{"x": 1, "xs": (1, 2)}, {"x": -4, "xs": ()}]
    memo = {}
    assert evaluate_each(T(LIST, "(fold + x (map inc xs))"), envs, memo) == (6, -4)
    assert evaluate_each(T(LIST, "2"), envs, memo) == (2, 2)
    from eqgrow.terms import EvalError
    with pytest.raises(EvalError):
        evaluate_each(T(LIST, "(+ x y)"), envs, memo)


# ---------------------------------------------------------------------------
# matching and substitution
# ---------------------------------------------------------------------------

def test_pattern_variables_by_kind_in_first_occurrence_preorder():
    assert (var("A", INT).kind, var("x", INT).kind) == ("pvar", "var")
    term = T(LIST, "(append (map F C) (cons (+ B x) (filter P (cons B C))))")
    assert list(pattern_variables(term).items()) == [
        ("F", FUN1), ("C", INTLIST), ("B", INT), ("P", PRED)]
    assert pattern_variables(T(ARITH, "(+ x 1)")) == {}


def test_match_binds_pattern_vars():
    got = match(T(ARITH, "(+ A B)"), T(ARITH, "(+ x 1)"))
    assert {k: v.text for k, v in got.items()} == {"A": "x", "B": "1"}


def test_match_nonlinear_requires_equality():
    assert match(T(ARITH, "(+ A A)"), T(ARITH, "(+ x y)")) is None
    assert match(T(ARITH, "(+ A A)"), T(ARITH, "(+ x x)")) is not None


def test_match_universal_pattern():
    for text in ("x", "(+ x y)", "(* (+ x 0) 2)"):
        term = T(ARITH, text)
        got = match(var("A", INT), term)
        assert got["A"] is term


def test_match_substitute_roundtrip():
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(200):
        concrete = _grow(LIST, INTLIST, 4, rng)
        pattern, _ = generalize(concrete, concrete)
        sigma = match(pattern, concrete)
        assert sigma is not None
        assert substitute(pattern, sigma).text == concrete.text


# ---------------------------------------------------------------------------
# generalization
# ---------------------------------------------------------------------------

def test_generalize_commutativity_pair():
    lhs, rhs = generalize(T(ARITH, "(+ x y)"), T(ARITH, "(+ y x)"))
    assert (lhs.text, rhs.text) == ("(+ A B)", "(+ B A)")


def test_generalize_keeps_constants():
    lhs, rhs = generalize(T(ARITH, "(* x 1)"), T(ARITH, "x"))
    assert (lhs.text, rhs.text) == ("(* A 1)", "A")


def test_generalize_repeated_variable():
    lhs, rhs = generalize(T(BOOLDOM, "(and p p)"), T(BOOLDOM, "p"))
    assert (lhs.text, rhs.text) == ("(and A A)", "A")


def test_generalize_semantics_preserved():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(100):
        left = _grow(ARITH, INT, 3, rng)
        right = _grow(ARITH, INT, 3, rng)
        glhs, grhs = generalize(left, right)
        env = sample_env(ARITH, rng)
        pattern_env = {}
        mapping = {}
        for original, generalized in zip((left, right), (glhs, grhs)):
            stack = [(original, generalized)]
            while stack:
                o, g = stack.pop()
                if g.kind == "pvar":
                    mapping[g.label] = o.label
                stack.extend(zip(o.args, g.args))
        for pvar, source in mapping.items():
            pattern_env[pvar] = env[source]
        assert evaluate(glhs, pattern_env) == evaluate(left, env)
        assert evaluate(grhs, pattern_env) == evaluate(right, env)


# ---------------------------------------------------------------------------
# subterms
# ---------------------------------------------------------------------------

def test_subterms_leaf_empty():
    assert subterms(T(ARITH, "x")) == []


def test_subterms_multi_arg_only():
    got = sorted(t.text for t in subterms(T(ARITH, "(* (+ x y) 1)")))
    assert got == ["(* (+ x y) 1)", "(+ x y)"]
    got = sorted(t.text for t in subterms(T(BOOLDOM, "(not (not p))")))
    assert got == ["(not (not p))", "(not p)"]


def test_subterms_multiset_keeps_duplicates():
    term = T(ARITH, "(+ (+ x x) (+ x x))")
    texts = [t.text for t in subterms(term)]
    assert texts.count("(+ x x)") == 2


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------

def test_enumerate_bool_leaves():
    got = [t.text for t in enumerate_terms(BOOLDOM, BOOL, 1)]
    assert got == ["p", "q", "r", "0", "1"]


def test_enumerate_arith_leaves():
    assert len(enumerate_terms(ARITH, INT, 1)) == 6


def test_enumerate_bool_depth2_is_60():
    assert len(enumerate_terms(BOOLDOM, BOOL, 2)) == 60
    assert count_terms(BOOLDOM, BOOL, 2) == 60


@pytest.mark.parametrize("spec,sort,depths", [
    (BOOLDOM, BOOL, (1, 2, 3)),
    (ARITH, INT, (1, 2, 3)),
    (LIST, INTLIST, (1, 2)),
    (LIST, INT, (1, 2)),
])
def test_count_matches_enumeration(spec, sort, depths):
    for d in depths:
        assert count_terms(spec, sort, d) == len(enumerate_terms(spec, sort, d))


def test_enumeration_cap(monkeypatch):
    with pytest.raises(EnumerationTooLarge):
        enumerate_terms(LIST, INTLIST, 4)
    monkeypatch.setattr("eqgrow.terms.ENUM_CAP", 69)
    assert len(enumerate_terms(LIST, INTLIST, 2)) == 69  # at the cap
    monkeypatch.setattr("eqgrow.terms.ENUM_CAP", 68)
    with pytest.raises(EnumerationTooLarge):
        enumerate_terms(LIST, INTLIST, 2)


def test_count_bit_cap(monkeypatch):
    assert count_terms(ARITH, INT, 9).bit_length() == 932
    with pytest.raises(EnumerationTooLarge, match="depth 2000 too large"):
        count_terms(ARITH, INT, 2000)
    monkeypatch.setattr("eqgrow.terms.COUNT_BITS_CAP", 14)
    assert count_terms(ARITH, INT, 3) == 12_174  # 14 bits, at the cap
    monkeypatch.setattr("eqgrow.terms.COUNT_BITS_CAP", 13)
    with pytest.raises(EnumerationTooLarge, match="depth 3 too large"):
        count_terms(ARITH, INT, 3)


def _reference_count(spec, sort, depth):
    """The top-down memoized recursion count_terms replaced."""
    @functools.cache
    def count(s, d):
        if d < 1:
            return 0
        return len(spec.leaves_by_sort.get(s, ())) + sum(
            math.prod(count(a, d - 1) for a in op.arg_sorts)
            for op in spec.ops_by_result.get(s, ()))
    return count(sort, depth)


@pytest.mark.parametrize("domain", sorted(SUBSTRATES))
def test_count_every_sort_at_depths_1_to_8(domain):
    spec = SUBSTRATES[domain]
    sorts = spec.leaves_by_sort.keys() | spec.ops_by_result.keys()
    for depth in range(1, 9):
        for sort in sorts:
            assert count_terms(spec, sort, depth) == \
                _reference_count(spec, sort, depth)


@pytest.mark.parametrize("spec,refused", [(ARITH, 10), (BOOLDOM, 10), (LIST, 9)])
def test_count_refuses_past_1024_bits_naming_the_depth(spec, refused):
    for sort in spec.ops_by_result:
        count_terms(spec, sort, refused - 1)
        for depth in (refused, refused + 1, 50):
            with pytest.raises(EnumerationTooLarge,
                               match=rf"depth {depth} too large: more than "
                                     rf"2\*\*1024 terms of depth {refused}$"):
                count_terms(spec, sort, depth)


def test_enumeration_terms_distinct():
    terms = enumerate_terms(LIST, INTLIST, 2)
    assert len({t.text for t in terms}) == len(terms)


# ---------------------------------------------------------------------------
# size/depth bookkeeping and text round-trip
# ---------------------------------------------------------------------------

def _recompute(term):
    if not term.args:
        return 1, 1
    sizes, depths = zip(*(_recompute(a) for a in term.args))
    return 1 + sum(sizes), 1 + max(depths)


def test_size_depth_bookkeeping_random_terms():
    rng = np.random.Generator(np.random.Philox(5))
    specs = [(ARITH, INT), (BOOLDOM, BOOL), (LIST, INTLIST), (LIST, INT)]
    for i in range(10_000):
        spec, sort = specs[i % len(specs)]
        term = _grow(spec, sort, 4, rng)
        size, depth = _recompute(term)
        assert term.size == size and depth <= 4


def test_parse_print_roundtrip_enumerated():
    for spec, sort in ((BOOLDOM, BOOL), (ARITH, INT), (LIST, INTLIST)):
        for term in enumerate_terms(spec, sort, 2):
            assert parse_term(spec, term.text).text == term.text


@st.composite
def _grammar_terms(draw, spec, sort, depth):
    """A term of ``sort`` and depth <= ``depth`` over every leaf of ``spec``."""
    ops = spec.ops_by_result.get(sort, ())
    if depth > 1 and ops and draw(st.booleans()):
        op = draw(st.sampled_from(ops))
        return app(op, [draw(_grammar_terms(spec, s, depth - 1))
                        for s in op.arg_sorts])
    return draw(st.sampled_from(spec.leaves_by_sort[sort]))


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from((ARITH, BOOLDOM, LIST)), data=st.data())
def test_print_parse_roundtrip(spec, data):
    sort = data.draw(st.sampled_from(spec.principal_sorts))
    lhs = data.draw(_grammar_terms(spec, sort, 4))
    rhs = data.draw(_grammar_terms(spec, sort, 4))
    lhs_pattern, rhs_pattern = generalize(lhs, rhs)
    for term, var_sorts in ((lhs, None), (rhs, None), (lhs_pattern, None),
                            (rhs_pattern, pattern_variables(lhs_pattern))):
        if term.kind == "pvar":  # a bare pattern variable's sort is given
            var_sorts = {term.label: term.sort}
        back = parse_term(spec, term.text, var_sorts=var_sorts)
        assert (back.text, back.sort) == (term.text, term.sort)


def test_parse_pattern_with_sorts():
    term = parse_term(LIST, "(map inc A)")
    assert term.args[1].sort == INTLIST
    with pytest.raises(Exception):
        parse_term(ARITH, "A")  # bare pattern variable, sort unknown


def test_parse_refuses_a_leaf_at_the_wrong_sort():
    # a constant (a primitive too) is looked up at the sort its slot expects
    for text in ("(+ x [])", "(map + xs)"):
        with pytest.raises(TermError, match="unknown atom"):
            parse_term(LIST, text)
    # a variable is taken at its own sort, and the operator refuses it
    with pytest.raises(TermError, match="argument xs has sort IntList"):
        parse_term(LIST, "(+ xs 1)")


@pytest.mark.parametrize("spec, principal, exhaustive", [
    (ARITH, (INT,), False), (BOOLDOM, (BOOL,), True),
    (LIST, (INTLIST, INT), False)])
def test_derived_substrate_facts(spec, principal, exhaustive):
    assert spec.principal_sorts == principal
    assert spec.exhaustive_bool is exhaustive
    # parse_term finds every leaf by its label alone
    assert len(spec.leaves_by_label) == sum(map(len, spec.leaves_by_sort.values()))
    # a leaf is a variable or a constant; a primitive is a constant whose
    # value is its meaning
    assert {leaf.kind for leaf in spec.leaves_by_label.values()} <= {"var", "const"}
    for name, _ in spec.prims:
        assert spec.leaves_by_label[name].value is MEANINGS[name]
    # one table holds the meaning of every operator and primitive label,
    # once: its literal repeats no key (a repeat would drop a meaning) and
    # has no other key
    table = next(node.value for node in ast.walk(ast.parse(inspect.getsource(terms)))
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["MEANINGS"])
    labels = {label for s in SUBSTRATES.values()
              for label in [op.name for op in s.operators] + [n for n, _ in s.prims]}
    assert sorted(key.value for key in table.keys) == sorted(labels)


def test_term_equality_includes_sort():
    assert const(0, INT) != const(False, BOOL)
    assert T(ARITH, "(+ x y)") == T(ARITH, "(+ x y)")
