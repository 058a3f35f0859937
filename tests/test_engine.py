import collections
import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eqgrow.engine import (
    ENGINE_VERSION, NORMALIZE_STEP_CAP, RAW_BLOCK, ArchConfig, ConfigError,
    GeneratorState, PhiloxStream, Rule, RuleSet, dump_rules, generate_candidate,
    is_reducible, load_rules, normalize, record_to_json, run_discovery,
    sample_env, sound, trajectory_record, _config_rng, _environments, _grow,
)
from eqgrow.terms import (
    ARITH, BOOL, BOOLDOM, INT, INTLIST, LIST, SUBSTRATES, Term, app, evaluate,
    match, parse_term, pattern_variables, substitute, subterms, var,
)
import golden

BOOL_SMOKE_FINAL = 214  # bool/random/any/d3/bs80/seed0, 30 epochs


def rule(spec, lhs, rhs):
    left = parse_term(spec, lhs)
    right = parse_term(spec, rhs, var_sorts=pattern_variables(left))
    return Rule(left, right)


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


def _depth(term):
    return 1 + max(map(_depth, term.args), default=0)


def test_random_respects_depth_cap():
    rng = _config_rng(ArchConfig("bool", "random", "any", 2, 40, 1, 1))
    state = GeneratorState(rng)
    for _ in range(200):
        cand = generate_candidate(state, "random", BOOLDOM, 2, "Bool")
        assert _depth(cand) <= 2


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
# the pseudo-random stream against numpy's Generator
# ---------------------------------------------------------------------------

def _streams(seed):
    """numpy's Generator and the engine's decoder on one seed."""
    return (np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))),
            PhiloxStream(np.random.SeedSequence(seed)))


# Ranges of one value (no draw), small ones, and ones above 2**31, where a
# 32-bit word is rejected about half the time.
_spans = st.one_of(st.sampled_from([1, 2, 21, 2**31 + 1, 2**32 - 1, 2**32]),
                   st.integers(1, 2**32))
_calls = st.lists(st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("high"), _spans),
    st.tuples(st.just("range"), st.integers(-50, 50), _spans),
    st.tuples(st.just("size"), st.integers(-50, 50), _spans,
              st.integers(0, 6)),
), max_size=60)


def _call(rng, call):
    kind, *args = call
    if kind == "random":
        return rng.random()
    if kind == "high":
        return int(rng.integers(args[0]))
    low, span = args[0], args[1]
    if kind == "range":
        return int(rng.integers(low, low + span))
    return list(map(int, rng.integers(low, low + span, size=args[2])))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), lead=st.integers(0, RAW_BLOCK + 2),
       calls=_calls)
@example(seed=0, lead=RAW_BLOCK - 1,
         calls=[("high", 21), ("random",), ("high", 21), ("size", 0, 5, 0),
                ("range", -3, 1), ("high", 2**31 + 1)])
def test_decoder_draws_as_numpy(seed, lead, calls):
    """Call for call, the decoder gives numpy's values and leaves the stream
    where numpy leaves it; ``lead`` words of random() first move the calls
    across a refill of the decoder's block (the example keeps a half-word
    across one)."""
    numpy_rng, decoder = _streams(seed)
    for call in [("random",)] * lead + calls + [("high", 2**32), ("random",)]:
        assert _call(decoder, call) == _call(numpy_rng, call)


def test_decoder_draws_as_numpy_long_streams():
    for seed in range(5):
        numpy_rng, decoder = _streams(seed)
        for i in range(3000):
            call = (("random",), ("high", 7), ("range", -10, 21),
                    ("size", -10, 21, i % 6), ("high", 2**31 + 1))[i % 5]
            assert _call(decoder, call) == _call(numpy_rng, call)


@pytest.mark.parametrize("low,high", [(0, 2**32 + 1), (-2**32, 1), (5, 5)])
def test_decoder_refuses_ranges_it_cannot_draw(low, high):
    with pytest.raises(ValueError):
        PhiloxStream(np.random.SeedSequence(0)).integers(low, high)


@pytest.mark.parametrize("spec", [ARITH, LIST], ids=["arith", "list"])
def test_engine_draws_take_either_stream(spec):
    """sample_env, _grow and sound give the same results, and leave the
    stream at the same place, on numpy's Generator (as the audits pass one)
    and on the decoder; list values come from an ndarray on one and a list
    on the other."""
    sort = spec.principal_sorts[-1]
    numpy_rng, decoder = _streams(7)
    before = _grow(spec, sort, 3, decoder)
    _grow(spec, sort, 3, numpy_rng)
    for _ in range(200):
        assert sample_env(spec, decoder) == sample_env(spec, numpy_rng)
        term = _grow(spec, sort, 3, decoder)
        assert _grow(spec, sort, 3, numpy_rng) == term
        # unequal terms stop at the first mismatch, so draw fewer than 12
        assert (sound(term, before, spec, decoder)
                == sound(term, before, spec, numpy_rng))
        before = term
    assert decoder.random() == numpy_rng.random()


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


# False only where a list holds 0; 12 random environments committed it.
FALSE_AT_ZERO = ("(filter nonzero (append (append [] []) xs))", "(append [] xs)")


def test_sound_rejects_a_pair_false_only_at_zero():
    lhs, rhs = (parse_term(LIST, text) for text in FALSE_AT_ZERO)
    for seed in range(20):
        assert not sound(lhs, rhs, LIST, PhiloxStream(np.random.SeedSequence(seed)))


def test_boundary_rejection_draws_nothing():
    lhs, rhs = (parse_term(LIST, text) for text in FALSE_AT_ZERO)
    numpy_rng, decoder = _streams(3)
    assert not sound(lhs, rhs, LIST, decoder)
    assert decoder.random() == numpy_rng.random()


def test_sound_bool_judges_exactly_the_eight_assignments(monkeypatch):
    judged = []

    def spy(term, env):
        judged.append(env)
        return evaluate(term, env)
    monkeypatch.setattr("eqgrow.engine.evaluate", spy)
    # no stream: a boolean check draws nothing
    assert sound(parse_term(BOOLDOM, "(and p q)"),
                 parse_term(BOOLDOM, "(and q p)"), BOOLDOM, None)
    worlds = [dict(zip("pqr", values))
              for values in itertools.product((False, True), repeat=3)]
    assert judged[::2] == judged[1::2] == worlds


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
    r1 = rule(ARITH, "(+ A 0)", "A")
    r2 = rule(ARITH, "(+ A 0)", "(* A 1)")
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
    -hit_count, so that ties go to the rule added first, each tried at every
    operator node of the term in preorder."""
    paths = []
    stack = [(term, ())]
    while stack:
        t, path = stack.pop()
        if t.kind == "app":
            paths.append((t, path))
            stack.extend((t.args[i], path + (i,))
                         for i in reversed(range(len(t.args))))
    for r in sorted(rules, key=lambda r: -r.hit_count):
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
            name: draw(_terms(spec, vsort, 2, leaves))
            for name, vsort in pattern_variables(pattern).items()})
    ops = spec.ops_by_result.get(sort, ())
    if depth > 1 and ops and draw(st.booleans()):
        op = draw(st.sampled_from(ops))
        return app(op, [draw(_terms(spec, s, depth - 1, leaves, patterns))
                        for s in op.arg_sorts])
    return draw(st.sampled_from(leaves[sort]))


@st.composite
def rewrite_problems(draw):
    """(spec, rules as (lhs, rhs, hit_count) in order of addition, term).

    Left sides may repeat a pattern variable; right sides may grow the term,
    commute the arguments or undo another rule, so some runs end at the
    step cap; hit counts are drawn from a small range, so ties are common;
    the term may hold pattern variables of its own.
    """
    spec = draw(st.sampled_from((ARITH, BOOLDOM, LIST)))
    with_vars = {s: list(leaves) + [var(n, s) for n in PATTERN_VARS.get(s, ())]
                 for s, leaves in spec.leaves_by_sort.items()}
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        sort = draw(st.sampled_from(spec.principal_sorts))
        op = draw(st.sampled_from(spec.ops_by_result[sort]))
        lhs = app(op, [draw(_terms(spec, s, 2, with_vars)) for s in op.arg_sorts])
        bound = pattern_variables(lhs)
        rhs_leaves = {s: list(leaves) + [var(n, vs) for n, vs in bound.items()
                                         if vs == s]
                      for s, leaves in spec.leaves_by_sort.items()}
        if len(set(op.arg_sorts)) == 1 and draw(st.integers(0, 3)) == 0:
            rhs = app(op, lhs.args[::-1])  # commutation: loops to the cap
        else:
            rhs = draw(_terms(spec, sort, 2, rhs_leaves))
        rules.append((lhs, rhs, draw(st.integers(0, 2))))
    sort = draw(st.sampled_from(spec.principal_sorts))
    term = draw(_terms(spec, sort, 4, with_vars, [lhs for lhs, *_ in rules]))
    return spec, rules, term


def _problem(spec, rules, term):
    """An explicit rewrite problem from (lhs, rhs, hit_count) texts."""
    parsed = []
    for lhs, rhs, hits in rules:
        r = rule(spec, lhs, rhs)
        parsed.append((r.lhs, r.rhs, hits))
    return spec, parsed, parse_term(spec, term)


@settings(max_examples=500, deadline=None)
@given(problem=rewrite_problems())
@example(problem=_problem(  # nonlinear left side
    ARITH, [("(+ A A)", "(* 2 A)", 0)], "(* (+ x y) (+ (* x 1) (* x 1)))"))
@example(problem=_problem(  # preset hit counts
    ARITH, [("(+ A 0)", "A", 0), ("(+ A 0)", "(* A 1)", 2),
            ("(* A 1)", "A", 1)], "(+ (* (+ y 0) 1) 0)"))
@example(problem=_problem(  # tied hit counts: the first added wins
    ARITH, [("(* A 1)", "A", 2), ("(+ A B)", "B", 2)], "(+ (* x 1) y)"))
@example(problem=_problem(  # pattern variables inside the term
    LIST, [("(reverse (reverse C))", "C", 0), ("(append [] C)", "C", 0)],
    "(append [] (reverse (reverse (append C D))))"))
@example(problem=_problem(  # the step cap
    BOOLDOM, [("(and A B)", "(and B A)", 0), ("(not (not A))", "A", 1)],
    "(or (and p (not (not q))) r)"))
def test_normalize_matches_linear_scan(problem):
    spec, rules, term = problem
    indexed = [Rule(lhs, rhs, hits) for lhs, rhs, hits in rules]
    scanned = [Rule(lhs, rhs, hits) for lhs, rhs, hits in rules]
    rs = ruleset(*indexed)
    assert is_reducible(term, rs) == (_reference_redex(term, scanned) is not None)
    got = normalize(term, rs)
    want = reference_normalize(term, scanned)
    assert got == want
    assert [r.hit_count for r in indexed] == [r.hit_count for r in scanned]
    assert is_reducible(got, rs) == (_reference_redex(want, scanned) is not None)


def test_redex_memo_is_dropped_when_a_rule_is_added():
    rs = ruleset(rule(ARITH, "(* A 1)", "A"))
    term = parse_term(ARITH, "(+ (* (+ x 0) 1) y)")
    first = normalize(term, rs)
    assert first.text == "(+ (+ x 0) y)"
    assert not is_reducible(first, rs)  # (+ x 0) is memoized without redexes
    rs.add(rule(ARITH, "(+ A 0)", "A"))
    replay = ruleset(*(Rule(r.lhs, r.rhs, r.hit_count) for r in rs.rules))
    assert is_reducible(first, rs)
    got = normalize(term, rs)
    want = normalize(term, replay)
    assert got == want and got.text == "(+ x y)"
    assert [r.hit_count for r in rs.rules] == [r.hit_count for r in replay.rules]


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

def _reducible_commits(config):
    """How many of a run's rules an earlier rule of the run rewrites."""
    rs, count = RuleSet(), 0
    for r in run_discovery(config).rules:
        count += is_reducible(r.lhs, rs)
        rs.add(r)
    return count


def test_filter_any_accepts_everything():
    assert _reducible_commits(
        ArchConfig("arith", "random", "any", 3, 40, 0, 10)) > 0


def test_filter_novelty_rejects_duplicate():
    rs = ruleset(rule(ARITH, "(* A 1)", "A"))
    assert is_reducible(parse_term(ARITH, "(* A 1)"), rs)
    assert _reducible_commits(
        ArchConfig("arith", "random", "novelty", 3, 40, 0, 10)) == 0


def test_filter_novelty_empty_ruleset_accepts():
    assert not is_reducible(parse_term(ARITH, "(* A 1)"), RuleSet())


def test_filter_novelty_rejects_reducible_subterm():
    rs = ruleset(rule(ARITH, "(+ A 0)", "A"))
    assert is_reducible(parse_term(ARITH, "(* B (+ C 0))"), rs)
    assert not is_reducible(parse_term(ARITH, "(* B (+ C 1))"), rs)


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


def test_bool_discovery_makes_no_sound_call(monkeypatch):
    """The boolean fingerprint is the exhaustive check already."""
    def refuse(*args):
        raise AssertionError("sound called in a boolean run")
    monkeypatch.setattr("eqgrow.engine.sound", refuse)
    cfg = ArchConfig("bool", "random", "any", 3, 80, 0, 30)
    assert run_discovery(cfg).trajectory.sizes[-1] == BOOL_SMOKE_FINAL


_BOOL_OPS = BOOLDOM.ops_by_name
_bool_terms = st.recursive(
    st.sampled_from(BOOLDOM.leaves_by_sort[BOOL]),
    lambda inner: st.one_of(
        st.builds(lambda a: app(_BOOL_OPS["not"], [a]), inner),
        st.builds(lambda op, a, b: app(_BOOL_OPS[op], [a, b]),
                  st.sampled_from(("and", "or")), inner, inner)),
    max_leaves=12)


@functools.cache
def _bool_run_rules():
    return tuple(run_discovery(
        ArchConfig("bool", "random", "any", 3, 80, 0, 30)).rules)


@settings(max_examples=200, deadline=None)
@given(term=_bool_terms)
def test_bool_normalize_keeps_the_truth_table(term):
    """Committed boolean rules are valid, so their normal forms keep each
    term's value on all 8 assignments; that is why a boolean run needs no
    soundness check beyond its fingerprint."""
    worlds = _environments(BOOLDOM, None)
    # fresh hit counts, so that each example replays alone
    nf = normalize(term, ruleset(*(Rule(r.lhs, r.rhs)
                                   for r in _bool_run_rules())))
    assert ([evaluate(nf, w) for w in worlds]
            == [evaluate(term, w) for w in worlds])


def _occurrences(pattern):
    """How often each pattern variable occurs in a pattern."""
    counts = collections.Counter()
    stack = [pattern]
    while stack:
        t = stack.pop()
        if t.kind == "pvar":
            counts[t.label] += 1
        stack.extend(t.args)
    return counts


@functools.cache
def _shrinking_run_rules(domain):
    """The committed rules of a real run that make every instance smaller:
    the left side is larger, and no variable occurs more often on the
    right."""
    rules = run_discovery(ArchConfig(domain, "compositional", "any", 3, 80, 0, 30)).rules
    return tuple(r for r in rules if r.lhs.size > r.rhs.size
                 and not _occurrences(r.rhs) - _occurrences(r.lhs))


@st.composite
def shrinking_problems(draw):
    """(rules, term) over one grammar; some of the term's nodes are
    instances of the rules' left sides, so that rewrites happen."""
    spec = draw(st.sampled_from((ARITH, BOOLDOM, LIST)))
    rules = _shrinking_run_rules(spec.domain_id)
    sort = draw(st.sampled_from(spec.principal_sorts))
    term = draw(_terms(spec, sort, 4, spec.leaves_by_sort,
                       [r.lhs for r in rules]))
    return rules, term


@settings(max_examples=300, deadline=None)
@given(problem=shrinking_problems())
def test_normalize_never_grows_under_shrinking_rules(problem):
    rules, term = problem
    # fresh hit counts, so that each example replays alone
    nf = normalize(term, ruleset(*(Rule(r.lhs, r.rhs) for r in rules)))
    assert nf == term or nf.size < term.size


def test_bool_smoke_run_golden():
    cfg = ArchConfig("bool", "random", "any", 3, 80, 0, 30)
    result = run_discovery(cfg)
    assert result.trajectory.sizes[-1] == BOOL_SMOKE_FINAL
    assert result.trajectory.sizes[-1] > 0


GOLDEN_RUNS = {
    "list": ArchConfig("list", "compositional", "any", 2, 80, 0, 60),
    "arith": ArchConfig("arith", "compositional", "novelty", 3, 80, 0, 30),
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_golden_trajectory(name, tmp_path):
    assert ENGINE_VERSION == golden.ENGINE_VERSION
    result = run_discovery(GOLDEN_RUNS[name])
    path = tmp_path / "run.rules"
    dump_rules(path, result.rules)
    got = hashlib.sha256(json.dumps(result.trajectory.sizes).encode()
                         + b"\n" + path.read_bytes()).hexdigest()
    assert got == golden.TRAJECTORY[name]


def test_discover_long_sizes_golden():
    # the benchmark's discover_long configurations: (engine seed, epochs)
    sizes = [run_discovery(ArchConfig("list", "compositional", "any", 2, 80,
                                      seed, epochs)).trajectory.sizes
             for seed, epochs in ((0, 160), (1, 80), (2, 80))]
    assert golden.digest(sizes) == golden.DISCOVER_LONG_SIZES


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
        assert pattern_variables(r.rhs).keys() <= pattern_variables(r.lhs).keys()


def audit(rule, spec, rng):
    """``sound`` on the rule with its pattern variables mapped back onto
    distinct substrate variables of the same sort; ``generalize`` maps
    substrate variables one-to-one, so there are always enough."""
    free = {}
    for name, sort in spec.variables:
        free.setdefault(sort, []).append(name)
    bindings = {name: var(free[sort].pop(0), sort)
                for name, sort in pattern_variables(rule.lhs).items()}
    return sound(substitute(rule.lhs, bindings),
                 substitute(rule.rhs, bindings), spec, rng)


def test_bool_rules_audit_exact():
    """Exhaustively-checked domains never commit a false rule."""
    cfg = ArchConfig("bool", "random", "novelty", 3, 80, 1, 20)
    rng = np.random.Generator(np.random.Philox(999))
    for r in run_discovery(cfg).rules:
        assert audit(r, BOOLDOM, rng)


def test_sampled_domains_audit_rate():
    """A fresh-seed recheck (the boundary environments, then 12 samples)
    passes for >= 95% of committed rules."""
    rules = []
    for seed in (0, 1, 2):
        cfg = ArchConfig("arith", "random", "any", 3, 80, seed, 15)
        rules.extend(run_discovery(cfg).rules)
    rules = rules[:100]
    rng = np.random.Generator(np.random.Philox(12345))
    passed = sum(audit(r, ARITH, rng) for r in rules)
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
