import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqgrow.engine import (
    NORMALIZE_STEP_CAP, ArchConfig, ConfigError, GeneratorState, Rule,
    RuleSet, dump_rules, filter_passes, generate_candidate, is_reducible,
    load_rules, normalize, record_to_json, recheck_rule, run_discovery, sound,
    trajectory_record, _config_rng,
)
from eqgrow.terms import (
    ARITH, BOOL, BOOLDOM, INT, INTLIST, LIST, SUBSTRATES, Term, app, match,
    parse_term, substitute, subterms, var,
)

BOOL_SMOKE_FINAL = 214  # bool/random/any/d3/bs80/seed0, 30 epochs


def rule(spec, lhs, rhs, index=0):
    left = parse_term(spec, lhs)
    sorts = {}
    stack = [left]
    while stack:
        t = stack.pop()
        if t.kind == "var" and t.label[0].isupper():
            sorts[t.label] = t.sort
        stack.extend(t.args)
    right = parse_term(spec, rhs, var_sorts=sorts)
    return Rule(left, right, 0, index)


def ruleset(*rules):
    rs = RuleSet()
    for r in rules:
        rs.add(r)
    return rs


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_compositional_empty_pool_equals_random():
    rng_a = _config_rng(ArchConfig("arith", "random", "any", 3, 40, 9, 1))
    rng_b = _config_rng(ArchConfig("arith", "random", "any", 3, 40, 9, 1))
    state_a = GeneratorState(rng_a)
    state_b = GeneratorState(rng_b)
    for _ in range(50):
        t1 = generate_candidate(state_a, "random", ARITH, 3, INT)
        t2 = generate_candidate(state_b, "compositional", ARITH, 3, INT)
        assert t1.text == t2.text


def test_mdl_greedy_contains_pool_champion():
    rng = _config_rng(ArchConfig("arith", "mdl_greedy", "any", 3, 40, 0, 1))
    state = GeneratorState(rng)
    state.harvest([parse_term(ARITH, "(+ x y)")])
    for _ in range(100):
        cand = generate_candidate(state, "mdl_greedy", ARITH, 3, INT)
        assert "(+ x y)" in cand.text


def test_random_respects_depth_cap():
    rng = _config_rng(ArchConfig("bool", "random", "any", 2, 40, 1, 1))
    state = GeneratorState(rng)
    for _ in range(200):
        cand = generate_candidate(state, "random", BOOLDOM, 2, "Bool")
        assert cand.depth <= 2


def test_generators_return_requested_sort():
    rng = _config_rng(ArchConfig("list", "compositional", "any", 3, 40, 2, 1))
    state = GeneratorState(rng)
    state.harvest(subterms(parse_term(LIST, "(append (reverse xs) ys)")))
    state.harvest(subterms(parse_term(LIST, "(+ (* x y) 1)")))
    for kind in ("random", "compositional", "freq", "mdl_greedy"):
        for sort in (INTLIST, INT):
            for _ in range(25):
                assert generate_candidate(state, kind, LIST, 3, sort).sort == sort


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------

def test_sound_bool_exhaustive():
    rng = np.random.Generator(np.random.Philox(0))
    assert sound(parse_term(BOOLDOM, "(and p q)"),
                 parse_term(BOOLDOM, "(and q p)"), BOOLDOM, rng)
    assert not sound(parse_term(BOOLDOM, "p"),
                     parse_term(BOOLDOM, "(not p)"), BOOLDOM, rng)


def test_sound_arith_true_identity_any_seed():
    lhs = parse_term(ARITH, "(+ x y)")
    rhs = parse_term(ARITH, "(+ y x)")
    for seed in range(10):
        rng = np.random.Generator(np.random.Philox(seed))
        assert sound(lhs, rhs, ARITH, rng)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_empty_ruleset_is_identity():
    term = parse_term(ARITH, "(* (+ x 0) 1)")
    assert normalize(term, RuleSet()) is term


def test_normalize_applies_to_fixpoint():
    rs = ruleset(rule(ARITH, "(* A 1)", "A"))
    got = normalize(parse_term(ARITH, "(* (* x 1) 1)"), rs)
    assert got.text == "x"
    assert rs.rules[0].hit_count == 2


def test_normalize_looping_rule_hits_step_cap():
    rs = ruleset(rule(ARITH, "(+ A B)", "(+ B A)"))
    got = normalize(parse_term(ARITH, "(+ x y)"), rs)
    # 48 swaps of a 2-cycle land back on the original form
    assert got.text == "(+ x y)"
    assert rs.rules[0].hit_count == 48


def test_normalize_rule_order_hit_count_descending():
    r1 = rule(ARITH, "(+ A 0)", "A", index=0)
    r2 = rule(ARITH, "(+ A 0)", "(* A 1)", index=1)
    r2.hit_count = 5
    rs = ruleset(r1, r2)
    got = normalize(parse_term(ARITH, "(+ y 0)"), rs)
    assert got.text == "(* y 1)"  # r2 outranks r1 on hit count


def test_normalize_outermost_position_first():
    # projection at the root wins in one step; an innermost scan would
    # rewrite the nested redex first and take two
    rs = ruleset(rule(ARITH, "(+ A B)", "B"))
    got = normalize(parse_term(ARITH, "(+ (+ x y) z)"), rs)
    assert got.text == "z"
    assert rs.rules[0].hit_count == 1


# ---------------------------------------------------------------------------
# the rule index against a linear scan of the sorted rules
# ---------------------------------------------------------------------------

def _reference_redex(term, rules):
    """The first (rule, path, bindings) over the rules stably sorted by
    (-hit_count, insertion_index), each tried at every operator node of the
    term in preorder."""
    paths = []
    stack = [(term, ())]
    while stack:
        t, path = stack.pop()
        if t.kind == "app":
            paths.append((t, path))
            stack.extend((t.args[i], path + (i,))
                         for i in reversed(range(len(t.args))))
    for r in sorted(rules, key=lambda r: (-r.hit_count, r.insertion_index)):
        for t, path in paths:
            if t.label == r.lhs.label:
                bindings = match(r.lhs, t)
                if bindings is not None:
                    return r, path, bindings
    return None


def _reference_replace(term, path, replacement):
    if not path:
        return replacement
    args = list(term.args)
    args[path[0]] = _reference_replace(args[path[0]], path[1:], replacement)
    return Term("app", term.label, None, tuple(args), term.sort)


def reference_normalize(term, rules):
    for _ in range(NORMALIZE_STEP_CAP):
        found = _reference_redex(term, rules)
        if found is None:
            return term
        r, path, bindings = found
        term = _reference_replace(term, path, substitute(r.rhs, bindings))
        r.hit_count += 1
    return term


PATTERN_VARS = {INT: ("A", "B"), INTLIST: ("C", "D"), BOOL: ("A", "B")}


@st.composite
def _terms(draw, spec, sort, depth, leaves, patterns=()):
    """A term of ``sort`` and depth <= ``depth`` with leaves from
    ``leaves[sort]``; some nodes are instances of ``patterns``, so that
    rules whose left sides they are find redexes."""
    fitting = [p for p in patterns if p.sort == sort]
    if fitting and draw(st.integers(0, 3)) == 0:
        pattern = draw(st.sampled_from(fitting))
        return substitute(pattern, {
            v.label: draw(_terms(spec, v.sort, 2, leaves))
            for v in _pattern_vars(pattern)})
    ops = spec.ops_by_result.get(sort, ())
    if depth > 1 and ops and draw(st.booleans()):
        op = draw(st.sampled_from(ops))
        return app(op, [draw(_terms(spec, s, depth - 1, leaves, patterns))
                        for s in op.arg_sorts])
    return draw(st.sampled_from(leaves[sort]))


@st.composite
def rewrite_problems(draw):
    """(spec, rules as (lhs, rhs, hit_count, insertion_index), term).

    Left sides may repeat a pattern variable; right sides may grow the term,
    commute the arguments or undo another rule, so some runs end at the
    step cap; hit counts and insertion indexes are drawn from small ranges,
    so ties are common; the term may hold pattern variables of its own.
    """
    spec = draw(st.sampled_from((ARITH, BOOLDOM, LIST)))
    with_vars = {s: list(leaves) + [var(n, s) for n in PATTERN_VARS.get(s, ())]
                 for s, leaves in spec.leaves_by_sort.items()}
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        sort = draw(st.sampled_from(spec.principal_sorts))
        op = draw(st.sampled_from(spec.ops_by_result[sort]))
        lhs = app(op, [draw(_terms(spec, s, 2, with_vars)) for s in op.arg_sorts])
        bound = list(_pattern_vars(lhs))
        rhs_leaves = {s: list(leaves) + [v for v in bound if v.sort == s]
                      for s, leaves in spec.leaves_by_sort.items()}
        if len(set(op.arg_sorts)) == 1 and draw(st.integers(0, 3)) == 0:
            rhs = app(op, lhs.args[::-1])  # commutation: loops to the cap
        else:
            rhs = draw(_terms(spec, sort, 2, rhs_leaves))
        rules.append((lhs, rhs, draw(st.integers(0, 2)), draw(st.integers(0, 2))))
    sort = draw(st.sampled_from(spec.principal_sorts))
    term = draw(_terms(spec, sort, 4, with_vars, [lhs for lhs, *_ in rules]))
    return spec, rules, term


def _problem(spec, rules, term):
    """An explicit rewrite problem from (lhs, rhs, hit_count, index) texts."""
    parsed = []
    for lhs, rhs, hits, index in rules:
        r = rule(spec, lhs, rhs, index)
        parsed.append((r.lhs, r.rhs, hits, index))
    return spec, parsed, parse_term(spec, term)


@settings(max_examples=500, deadline=None)
@given(problem=rewrite_problems())
@example(problem=_problem(  # nonlinear left side
    ARITH, [("(+ A A)", "(* 2 A)", 0, 0)], "(* (+ x y) (+ (* x 1) (* x 1)))"))
@example(problem=_problem(  # preset hit counts
    ARITH, [("(+ A 0)", "A", 0, 0), ("(+ A 0)", "(* A 1)", 2, 1),
            ("(* A 1)", "A", 1, 2)], "(+ (* (+ y 0) 1) 0)"))
@example(problem=_problem(  # a shared insertion index: the first added wins
    ARITH, [("(* A 1)", "A", 2, 0), ("(+ A B)", "B", 2, 0)], "(+ (* x 1) y)"))
@example(problem=_problem(  # pattern variables inside the term
    LIST, [("(reverse (reverse C))", "C", 0, 0), ("(append [] C)", "C", 0, 1)],
    "(append [] (reverse (reverse (append C D))))"))
@example(problem=_problem(  # the step cap
    BOOLDOM, [("(and A B)", "(and B A)", 0, 0), ("(not (not A))", "A", 1, 1)],
    "(or (and p (not (not q))) r)"))
def test_normalize_matches_linear_scan(problem):
    spec, rules, term = problem
    indexed = [Rule(lhs, rhs, hits, index) for lhs, rhs, hits, index in rules]
    scanned = [Rule(lhs, rhs, hits, index) for lhs, rhs, hits, index in rules]
    rs = ruleset(*indexed)
    assert is_reducible(term, rs) == (_reference_redex(term, scanned) is not None)
    got = normalize(term, rs)
    want = reference_normalize(term, scanned)
    assert got == want
    assert [r.hit_count for r in indexed] == [r.hit_count for r in scanned]
    assert is_reducible(got, rs) == (_reference_redex(want, scanned) is not None)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

def test_filter_any_accepts_everything():
    rs = ruleset(rule(ARITH, "(* A 1)", "A"))
    lhs = parse_term(ARITH, "(* A 1)")
    assert filter_passes("any", lhs, parse_term(ARITH, "A", sort=INT), rs)


def test_filter_novelty_rejects_duplicate():
    rs = ruleset(rule(ARITH, "(* A 1)", "A"))
    lhs = parse_term(ARITH, "(* A 1)")
    assert not filter_passes("novelty", lhs, lhs.args[0], rs)


def test_filter_novelty_empty_ruleset_accepts():
    lhs = parse_term(ARITH, "(* A 1)")
    assert filter_passes("novelty", lhs, lhs.args[0], RuleSet())


def test_filter_novelty_rejects_reducible_subterm():
    rs = ruleset(rule(ARITH, "(+ A 0)", "A"))
    probe = parse_term(ARITH, "(* B (+ C 0))")
    assert is_reducible(probe, rs)
    assert not filter_passes("novelty", probe, probe.args[0], rs)


def test_novelty_probe_does_not_touch_hit_counts():
    rs = ruleset(rule(ARITH, "(+ A 0)", "A"))
    is_reducible(parse_term(ARITH, "(* B (+ C 0))"), rs)
    assert rs.rules[0].hit_count == 0


# ---------------------------------------------------------------------------
# the discovery loop
# ---------------------------------------------------------------------------

def test_zero_epochs_empty_trajectory():
    cfg = ArchConfig("arith", "random", "any", 3, 40, 0, 0)
    assert run_discovery(cfg).trajectory.sizes == []


def test_discovery_deterministic():
    cfg = ArchConfig("list", "freq", "novelty", 3, 40, 3, 12)
    a = run_discovery(cfg)
    b = run_discovery(cfg)
    assert a.trajectory.sizes == b.trajectory.sizes
    assert [r.format() for r in a.rules] == [r.format() for r in b.rules]
    assert (record_to_json(trajectory_record(a.trajectory))
            == record_to_json(trajectory_record(b.trajectory)))


def test_bool_smoke_run_golden():
    cfg = ArchConfig("bool", "random", "any", 3, 80, 0, 30)
    result = run_discovery(cfg)
    assert result.trajectory.sizes[-1] == BOOL_SMOKE_FINAL
    assert result.trajectory.sizes[-1] > 0


# sha256 of the size list, a newline and the dumped rule file, for
# engine eqgrow-0.1.0; a change of the engine's semantics changes them.
GOLDEN_RUNS = [
    (ArchConfig("list", "compositional", "any", 2, 80, 0, 60),
     "593f98a91dcb99acd667df95c516d886dadc2c93f232f0b2475cf2b6ea5527f3"),
    (ArchConfig("arith", "compositional", "novelty", 3, 80, 0, 30),
     "00e2b67bdb8f6a1136e85e46ec95cd2c4a6a395a95245c4028d0f1a4a1f79188"),
]


@pytest.mark.parametrize("config,digest", GOLDEN_RUNS, ids=["list", "arith"])
def test_golden_trajectory(config, digest, tmp_path):
    result = run_discovery(config)
    path = tmp_path / "run.rules"
    dump_rules(path, result.rules)
    got = hashlib.sha256(json.dumps(result.trajectory.sizes).encode()
                         + b"\n" + path.read_bytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("domain,generator,filt", [
    ("arith", "random", "any"),
    ("bool", "compositional", "novelty"),
    ("list", "mdl_greedy", "any"),
])
def test_sizes_monotone_nondecreasing(domain, generator, filt):
    cfg = ArchConfig(domain, generator, filt, 3, 40, 1, 15)
    sizes = run_discovery(cfg).trajectory.sizes
    assert len(sizes) == 15
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_committed_rules_shrink_and_bind():
    cfg = ArchConfig("list", "random", "any", 3, 80, 2, 15)
    for r in run_discovery(cfg).rules:
        assert r.lhs.size > r.rhs.size
        lhs_vars = {t for t in _pattern_vars(r.lhs)}
        assert set(_pattern_vars(r.rhs)) <= lhs_vars


def _pattern_vars(term):
    stack = [term]
    while stack:
        t = stack.pop()
        if t.kind == "var" and t.label[0].isupper():
            yield t
        stack.extend(t.args)


def test_bool_rules_audit_exact():
    """Exhaustively-checked domains never commit a false rule."""
    cfg = ArchConfig("bool", "random", "novelty", 3, 80, 1, 20)
    rng = np.random.Generator(np.random.Philox(999))
    for r in run_discovery(cfg).rules:
        assert recheck_rule(r, BOOLDOM, rng)


def test_sampled_domains_audit_rate():
    """Fresh-seed 12-sample recheck passes for >= 95% of committed rules."""
    rules = []
    for seed in (0, 1, 2):
        cfg = ArchConfig("arith", "random", "any", 3, 80, seed, 15)
        rules.extend(run_discovery(cfg).rules)
    rules = rules[:100]
    rng = np.random.Generator(np.random.Philox(12345))
    passed = sum(recheck_rule(r, ARITH, rng) for r in rules)
    assert passed / len(rules) >= 0.95


def test_epoch_prefix_property():
    """A shorter run is a prefix of a longer run of the same configuration."""
    short = run_discovery(ArchConfig("arith", "random", "any", 3, 40, 4, 10))
    long = run_discovery(ArchConfig("arith", "random", "any", 3, 40, 4, 20))
    assert long.trajectory.sizes[:10] == short.trajectory.sizes


def test_config_validation():
    with pytest.raises(ConfigError):
        ArchConfig("arith", "random", "any", 9, 80, 0, 5)
    with pytest.raises(ConfigError):
        ArchConfig("arith", "random", "any", 3, 81, 0, 5)
    ArchConfig("arith", "random", "any", 9, 81, 0, 5, allow_overrides=True)


def test_rule_file_roundtrip(tmp_path):
    cfg = ArchConfig("list", "random", "any", 3, 80, 0, 10)
    rules = run_discovery(cfg).rules
    path = tmp_path / "list.rules"
    dump_rules(path, rules)
    loaded = load_rules(LIST, path)
    assert [r.format() for r in loaded] == [r.format() for r in rules]


def test_trajectory_record_fields():
    cfg = ArchConfig("arith", "random", "any", 2, 40, 0, 3)
    record = trajectory_record(run_discovery(cfg).trajectory)
    assert list(record) == ["domain", "generator", "filter", "depth",
                            "batch_size", "seed", "epochs", "sizes",
                            "engine_version", "prng_id"]
    parsed = json.loads(record_to_json(record))
    assert parsed == record
