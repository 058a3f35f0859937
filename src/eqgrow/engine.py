"""Equational rule discovery over the typed substrates.

Each discovery epoch draws a batch of candidate terms from a generator,
normalizes them against the current rule set, groups them by the semantic
fingerprint of their normal forms (evaluation on shared environments,
exhaustive worlds for the boolean domain), and turns each group of two or
more into a candidate equation: the largest member oriented onto the
smallest.  Sound, strictly size-decreasing pairs are generalized to pattern
rules, passed through the acceptance filter, and committed.  Subterms of
committed equations feed a pool that the compositional generators draw
from.

A run is a pure function of its configuration: the pseudo-random stream is
a counter-based Philox generator keyed by the configuration fields, and all
tie-breaks are canonical-order deterministic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .terms import (
    BOOL, INT, INTLIST, SubstrateSpec, SUBSTRATES, Term, evaluate, generalize,
    match, parse_term, pattern_variables, substitute, subterms,
)

GENERATORS = ("random", "compositional", "freq", "mdl_greedy")
FILTERS = ("any", "novelty")
SWEEP_DEPTHS = (2, 3, 4)
SWEEP_BATCH_SIZES = (40, 60, 80, 120, 160)

LEAF_PROB = 0.3          # grow-method leaf probability below the depth cap
SOUND_SAMPLES = 12       # random environments per soundness check
INT_LOW, INT_HIGH = -10, 10
LIST_LEN_MAX = 5
NORMALIZE_STEP_CAP = 48
MAX_CANDIDATE_SIZE = 64  # safety bound on compositional joins

PRNG_ID = f"philox4x64:numpy-{np.__version__}"
ENGINE_VERSION = f"eqgrow-{__version__}"

BOOL_WORLDS = tuple(
    {"p": p, "q": q, "r": r}
    for p, q, r in itertools.product((False, True), repeat=3)
)


class ConfigError(ValueError):
    """Configuration outside the supported sweep sets."""


# The fields that identify a run, in the order of ArchConfig.key() and of
# every JSONL record.
KEY_FIELDS = ("domain", "generator", "filter", "depth", "batch_size", "seed",
              "epochs")


@dataclass(frozen=True)
class ArchConfig:
    """One sweep point of the architecture grid."""

    domain: str
    generator: str
    filter: str
    depth: int
    batch_size: int
    seed: int
    epochs: int
    allow_overrides: bool = False

    def __post_init__(self):
        if self.domain not in SUBSTRATES:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.filter not in FILTERS:
            raise ConfigError(f"unknown filter {self.filter!r}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not self.allow_overrides:
            if self.depth not in SWEEP_DEPTHS:
                raise ConfigError(f"depth {self.depth} outside sweep set {SWEEP_DEPTHS}")
            if self.batch_size not in SWEEP_BATCH_SIZES:
                raise ConfigError(
                    f"batch_size {self.batch_size} outside sweep set {SWEEP_BATCH_SIZES}")

    def key(self) -> tuple:
        return tuple(getattr(self, name) for name in KEY_FIELDS)


@dataclass(eq=False)
class Rule:
    """Oriented rewrite rule between two patterns."""

    lhs: Term
    rhs: Term
    hit_count: int = 0
    insertion_index: int = 0

    def key(self) -> tuple[str, str]:
        return (self.lhs.text, self.rhs.text)

    def format(self) -> str:
        return f"{self.lhs.text} => {self.rhs.text}"


@dataclass
class Trajectory:
    config: ArchConfig
    sizes: list[int]


@dataclass
class DiscoveryResult:
    trajectory: Trajectory
    rules: list[Rule]


# ---------------------------------------------------------------------------
# Rule sets and normalization
# ---------------------------------------------------------------------------

class RuleSet:
    """Committed rules, indexed for lookup by a discrimination tree.

    The tree is keyed on the preorder symbols ``(kind, label)`` of each
    left side, with every pattern variable a wildcard that skips one whole
    subterm, so a lookup at a term position returns every rule that could
    match there and ``match`` confirms it.  Rules take precedence by
    ``(-hit_count, insertion_index, order of addition)``; a rule that
    matches at several positions applies at the first in preorder.  A rule
    whose left side is not an operator application never applies.
    """

    def __init__(self):
        self.rules: list[Rule] = []
        # (node, kind, label) -> child node; kind and label are None for a
        # pattern variable.  Node 0 is the root.
        self._edges: dict[tuple, int] = {}
        # leaf node -> [(order of addition, rule)]
        self._leaves: dict[int, list[tuple[int, Rule]]] = {}

    def __len__(self):
        return len(self.rules)

    def add(self, rule: Rule):
        if rule.lhs.kind == "app":
            node = 0
            for t in _preorder(rule.lhs):
                key = ((node, None, None)
                       if t.kind == "var" and t.label[0].isupper()
                       else (node, t.kind, t.label))
                child = self._edges.get(key)
                if child is None:
                    child = self._edges[key] = len(self._edges) + 1
                node = child
            self._leaves.setdefault(node, []).append((len(self.rules), rule))
        self.rules.append(rule)

    def candidates(self, nodes: list[Term]) -> list[tuple[int, int, Rule]]:
        """``(position, order of addition, rule)`` for each rule whose left
        side could match at a position of a term, given the term's nodes in
        preorder; a position indexes ``nodes``.

        A symbol has one arity in every substrate, so a path that reaches a
        leaf of the tree has read exactly the subterm at the position.
        """
        edges, leaves = self._edges, self._leaves
        out = []
        for i, t in enumerate(nodes):
            root = edges.get((0, t.kind, t.label))
            if root is None:
                continue
            stack = [(root, i + 1)]
            while stack:
                node, j = stack.pop()
                found = leaves.get(node)
                if found is not None:
                    out.extend((i, order, rule) for order, rule in found)
                    continue
                n = nodes[j]
                child = edges.get((node, n.kind, n.label))
                if child is not None:
                    stack.append((child, j + 1))
                child = edges.get((node, None, None))
                if child is not None:
                    stack.append((child, j + n.size))
        return out


def _preorder(term: Term) -> list[Term]:
    """The nodes of a term in preorder; the subterm at position i spans
    positions i to i + size - 1."""
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(reversed(t.args))
    return out


def _replace_at(term: Term, position: int, replacement: Term) -> Term:
    """The term with its subterm at a preorder position replaced."""
    if position == 0:
        return replacement
    i = 1
    for k, arg in enumerate(term.args):
        if position < i + arg.size:
            break
        i += arg.size
    args = list(term.args)
    args[k] = _replace_at(arg, position - i, replacement)
    return Term("app", term.label, None, tuple(args), term.sort)


def normalize(term: Term, ruleset: RuleSet) -> Term:
    """Rewrite to a fixpoint or the step cap.

    At each step the applicable rule with the smallest ``(-hit_count,
    insertion_index, order of addition)`` wins, at its first preorder
    position in the term; each application increments that rule's hit
    count.
    """
    if not ruleset.rules:
        return term
    for _ in range(NORMALIZE_STEP_CAP):
        nodes = _preorder(term)
        candidates = sorted(
            ruleset.candidates(nodes),
            key=lambda c: (-c[2].hit_count, c[2].insertion_index, c[1], c[0]))
        for position, _, rule in candidates:
            bindings = match(rule.lhs, nodes[position])
            if bindings is not None:
                break
        else:
            return term
        term = _replace_at(term, position, substitute(rule.rhs, bindings))
        rule.hit_count += 1
    return term


def is_reducible(term: Term, ruleset: RuleSet) -> bool:
    """True when any rule matches any position of the term.

    Read-only probe: hit counts are not touched, so filter checks cannot
    perturb normalization order.
    """
    nodes = _preorder(term)
    return any(match(rule.lhs, nodes[position]) is not None
               for position, _, rule in ruleset.candidates(nodes))


def filter_passes(kind: str, lhs: Term, rhs: Term, ruleset: RuleSet) -> bool:
    if kind == "any":
        return True
    if kind == "novelty":
        return not is_reducible(lhs, ruleset)
    raise ConfigError(f"unknown filter {kind!r}")


# ---------------------------------------------------------------------------
# Environments and soundness
# ---------------------------------------------------------------------------

def _sample_value(sort: str, rng: np.random.Generator):
    """Random value of a sort: ints uniform in [-10, 10], list lengths in [0, 5]."""
    if sort == INT:
        return int(rng.integers(INT_LOW, INT_HIGH + 1))
    if sort == BOOL:
        return bool(rng.integers(0, 2))
    if sort == INTLIST:
        length = int(rng.integers(0, LIST_LEN_MAX + 1))
        return tuple(
            int(v) for v in rng.integers(INT_LOW, INT_HIGH + 1, size=length))
    raise ConfigError(f"cannot sample a value of sort {sort}")


def sample_env(spec: SubstrateSpec, rng: np.random.Generator) -> dict:
    """Random environment over the substrate's variables, in grammar order."""
    return {name: _sample_value(sort, rng) for name, sort in spec.variables}


def sound(lhs: Term, rhs: Term, spec: SubstrateSpec,
          rng: np.random.Generator) -> bool:
    """Semantic equivalence check.

    Boolean domain: exhaustive over the 8 assignments.  Other domains: 12
    random environments, exact value equality on all of them.
    """
    if spec.exhaustive_bool:
        return all(evaluate(lhs, w) == evaluate(rhs, w) for w in BOOL_WORLDS)
    for _ in range(SOUND_SAMPLES):
        env = sample_env(spec, rng)
        if evaluate(lhs, env) != evaluate(rhs, env):
            return False
    return True


def recheck_rule(rule: "Rule", spec: SubstrateSpec,
                 rng: np.random.Generator) -> bool:
    """Soundness audit of a committed rule.

    Pattern variables are instantiated with fresh random values of their
    sorts; the boolean domain enumerates all assignments exhaustively.
    """
    names = sorted({(t.label, t.sort) for t in _leaves(rule.lhs)
                    if t.kind == "var"})
    if spec.exhaustive_bool:
        for values in itertools.product((False, True), repeat=len(names)):
            env = {name: v for (name, _), v in zip(names, values)}
            if evaluate(rule.lhs, env) != evaluate(rule.rhs, env):
                return False
        return True
    for _ in range(SOUND_SAMPLES):
        env = {name: _sample_value(sort, rng) for name, sort in names}
        if evaluate(rule.lhs, env) != evaluate(rule.rhs, env):
            return False
    return True


def _leaves(term: Term):
    stack = [term]
    while stack:
        t = stack.pop()
        if not t.args:
            yield t
        stack.extend(t.args)


# ---------------------------------------------------------------------------
# Candidate generators
# ---------------------------------------------------------------------------

class GeneratorState:
    """Pool of harvested subterms plus draw weights.

    The pool is a multiset: ``occurrences`` lists one entry index per
    harvested occurrence (uniform draws).  Each distinct entry's frequency
    weight is the number of commits since it entered the pool, tracked as a
    birth index so a commit costs O(harvest), not O(pool).
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.terms: list[Term] = []
        self.index: dict[str, int] = {}
        self.occurrences: list[int] = []
        self.birth: list[int] = []
        self.commit_count = 0
        self._freq_cum: np.ndarray | None = None
        self._mdl_best: int | None = None

    @property
    def pool_size(self) -> int:
        return len(self.occurrences)

    def harvest(self, terms: list[Term]):
        for t in terms:
            if t.size > MAX_CANDIDATE_SIZE:
                continue
            i = self.index.get(t.text)
            if i is None:
                i = len(self.terms)
                self.index[t.text] = i
                self.terms.append(t)
                self.birth.append(self.commit_count)
            self.occurrences.append(i)
        self.commit_count += 1
        self._freq_cum = None
        self._mdl_best = None

    def draw_uniform(self) -> Term:
        return self.terms[self.occurrences[int(self.rng.integers(self.pool_size))]]

    def draw_freq(self) -> Term:
        if self._freq_cum is None:
            freq = self.commit_count - np.asarray(self.birth, dtype=np.float64)
            self._freq_cum = np.cumsum(freq)
        total = float(self._freq_cum[-1])
        r = self.rng.random() * total
        return self.terms[int(np.searchsorted(self._freq_cum, r, side="right"))]

    def mdl_pick(self) -> Term:
        """Largest pool entry; ties by highest frequency, then canonical order."""
        if self._mdl_best is None:
            self._mdl_best = min(
                range(len(self.terms)),
                key=lambda i: (-self.terms[i].size, self.birth[i], self.terms[i].text))
        return self.terms[self._mdl_best]


def _random_leaf(spec: SubstrateSpec, sort: str, rng: np.random.Generator) -> Term:
    leaves = spec.leaves_by_sort[sort]
    return leaves[int(rng.integers(len(leaves)))]


def _grow(spec: SubstrateSpec, sort: str, depth_left: int,
          rng: np.random.Generator) -> Term:
    ops = spec.ops_by_result.get(sort)
    if depth_left <= 1 or not ops or rng.random() < LEAF_PROB:
        return _random_leaf(spec, sort, rng)
    op = ops[int(rng.integers(len(ops)))]
    args = tuple(_grow(spec, s, depth_left - 1, rng) for s in op.arg_sorts)
    return Term("app", op.name, None, args, op.result)


def _join(spec: SubstrateSpec, sort: str, t1: Term, t2: Term,
          rng: np.random.Generator) -> Term | None:
    """Root one operator of the target sort over two pool subterms.

    Subterms fill the first argument slots whose sorts they fit; remaining
    slots get random leaves.  Returns None when the join would exceed the
    candidate size bound.
    """
    ops = spec.ops_by_result.get(sort)
    if not ops:
        return None
    op = ops[int(rng.integers(len(ops)))]
    pending: list[Term | None] = [t1, t2]
    args: list[Term] = []
    for s in op.arg_sorts:
        chosen = None
        for i, t in enumerate(pending):
            if t is not None and t.sort == s:
                chosen = t
                pending[i] = None
                break
        args.append(chosen if chosen is not None else _random_leaf(spec, s, rng))
    if 1 + sum(a.size for a in args) > MAX_CANDIDATE_SIZE:
        return None
    return Term("app", op.name, None, tuple(args), op.result)


def generate_candidate(state: GeneratorState, kind: str, spec: SubstrateSpec,
                       depth: int, sort: str) -> Term:
    """One candidate term of the requested sort.

    random grows a fresh term under the depth cap.  The pool generators
    join two harvested subterms under a fresh operator (joins may exceed
    the nominal depth; that recombination is what lets rules compound) and
    fall back to random while the pool is empty or a join is oversized.
    """
    rng = state.rng
    if kind == "random" or state.pool_size == 0:
        return _grow(spec, sort, depth, rng)
    if kind == "compositional":
        t1, t2 = state.draw_uniform(), state.draw_uniform()
    elif kind == "freq":
        t1, t2 = state.draw_freq(), state.draw_freq()
    elif kind == "mdl_greedy":
        t1, t2 = state.mdl_pick(), state.draw_uniform()
    else:
        raise ConfigError(f"unknown generator {kind!r}")
    joined = _join(spec, sort, t1, t2, rng)
    if joined is None:
        return _grow(spec, sort, depth, rng)
    return joined


# ---------------------------------------------------------------------------
# The discovery loop
# ---------------------------------------------------------------------------

def _config_rng(config: ArchConfig) -> np.random.Generator:
    entropy = [
        int(config.seed),
        list(SUBSTRATES).index(config.domain),
        GENERATORS.index(config.generator),
        FILTERS.index(config.filter),
        int(config.depth),
        int(config.batch_size),
    ]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def run_discovery(config: ArchConfig) -> DiscoveryResult:
    """Run the full discovery loop for one configuration."""
    spec = SUBSTRATES[config.domain]
    rng = _config_rng(config)
    state = GeneratorState(rng)
    ruleset = RuleSet()
    seen: set[tuple[str, str]] = set()
    sizes: list[int] = []

    for _ in range(config.epochs):
        if spec.exhaustive_bool:
            envs = BOOL_WORLDS
        else:
            envs = [sample_env(spec, rng) for _ in range(SOUND_SAMPLES)]

        groups: dict[tuple, list[Term]] = {}
        for _ in range(config.batch_size):
            if len(spec.principal_sorts) > 1:
                sort = spec.principal_sorts[0 if rng.random() < 0.5 else 1]
            else:
                sort = spec.principal_sorts[0]
            cand = generate_candidate(state, config.generator, spec,
                                      config.depth, sort)
            nf = normalize(cand, ruleset)
            fingerprint = (nf.sort,) + tuple(evaluate(nf, e) for e in envs)
            groups.setdefault(fingerprint, []).append(cand)

        for members in groups.values():
            if len(members) < 2:
                continue
            lhs_c = min(members, key=lambda t: (-t.size, t.text))
            rhs_c = min(members, key=lambda t: (t.size, t.text))
            if lhs_c.size <= rhs_c.size:
                continue
            if not sound(lhs_c, rhs_c, spec, rng):
                continue
            lhs, rhs = generalize(lhs_c, rhs_c)
            if pattern_variables(rhs) - pattern_variables(lhs):
                continue
            key = (lhs.text, rhs.text)
            if key in seen:
                continue
            if not filter_passes(config.filter, lhs, rhs, ruleset):
                continue
            ruleset.add(Rule(lhs, rhs, 0, len(ruleset.rules)))
            seen.add(key)
            state.harvest(subterms(lhs_c) + subterms(rhs_c))
        sizes.append(len(ruleset.rules))

    trajectory = Trajectory(config=config, sizes=sizes)
    return DiscoveryResult(trajectory=trajectory, rules=ruleset.rules)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def trajectory_record(trajectory: Trajectory) -> dict:
    return {
        **dict(zip(KEY_FIELDS, trajectory.config.key())),
        "sizes": list(trajectory.sizes),
        "engine_version": ENGINE_VERSION,
        "prng_id": PRNG_ID,
    }


def record_to_json(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def dump_rules(path, rules: list[Rule]):
    with open(path, "w", encoding="utf-8") as fh:
        for rule in rules:
            fh.write(rule.format() + "\n")


def load_rules(spec: SubstrateSpec, path) -> list[Rule]:
    rules = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            lhs_text, _, rhs_text = line.partition("=>")
            lhs = parse_term(spec, lhs_text.strip())
            var_sorts = {}
            _collect_pattern_sorts(lhs, var_sorts)
            rhs = parse_term(spec, rhs_text.strip(), var_sorts=var_sorts)
            rules.append(Rule(lhs, rhs, 0, i))
    return rules


def _collect_pattern_sorts(term: Term, out: dict):
    if term.kind == "var" and term.label[0].isupper():
        out[term.label] = term.sort
    for a in term.args:
        _collect_pattern_sorts(a, out)
