"""Equational rule discovery over the typed substrates.

Each discovery epoch draws a batch of candidate terms of the substrate's
principal sorts (its operators' result sorts) from a generator, groups
them by their semantic fingerprint (evaluation on the epoch's shared
environments: every assignment when all variables are Bool, as in the
boolean domain; one walk per candidate gives its values under all of them,
and a subterm shared by several is evaluated once per epoch), and
turns each group of two or more into a candidate equation: the largest
member oriented onto the smallest.  Sound, strictly size-decreasing pairs
are generalized to pattern rules, passed through the acceptance filter, and
committed.  Subterms of committed equations feed a pool that the
compositional generators draw from.  The loop does not rewrite: a sound
rule keeps a term's value, so a normal form would have the fingerprint of
the candidate it came from.

A run is a pure function of its configuration: the pseudo-random stream is
a counter-based Philox generator keyed by the configuration fields, decoded
draw for draw as numpy's ``Generator`` would (``PhiloxStream``), and all
tie-breaks are canonical-order deterministic.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .terms import (
    INT, INTLIST, SubstrateSpec, SUBSTRATES, Term, TermError, evaluate,
    evaluate_each, generalize, match, parse_term, pattern_variables,
    substitute, subterms,
)

DOMAINS = tuple(SUBSTRATES)
GENERATORS = ("random", "compositional", "freq", "mdl_greedy")
FILTERS = ("any", "novelty")
SWEEP_DEPTHS = (2, 3, 4)
SWEEP_BATCH_SIZES = (40, 60, 80, 120, 160)

LEAF_PROB = 0.3          # grow-method leaf probability below the depth cap
SOUND_SAMPLES = 12       # random environments per soundness check
# The fixed environments a sampled domain's soundness check tries first: in
# each, every Int variable takes the pair's int and every IntList variable
# its list.  False rules hide at 0 and in lists that hold 0.
BOUNDARY_VALUES = ((0, ()), (0, (0,)), (1, (0, 1)), (-1, (-1, 0, 2)))
INT_LOW, INT_HIGH = -10, 10
LIST_LEN_MAX = 5
NORMALIZE_STEP_CAP = 48
MAX_CANDIDATE_SIZE = 64  # safety bound on compositional joins

PRNG_ID = f"philox4x64:numpy-{np.__version__}"
ENGINE_VERSION = f"eqgrow-{__version__}"

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

    def __post_init__(self):
        if self.domain not in SUBSTRATES:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}")
        if self.filter not in FILTERS:
            raise ConfigError(f"unknown filter {self.filter!r}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
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
    ``(-hit_count, order of addition)``; a rule that matches at several
    positions applies at the first in preorder.  A rule whose left side is
    not an operator application never applies.

    The redexes of each subterm are memoized.  They depend on the rules but
    not on their hit counts, so the memo holds until the next ``add``.
    """

    def __init__(self):
        self.rules: list[Rule] = []
        # (node, kind, label) -> child node; kind and label are None for a
        # pattern variable.  Node 0 is the root.
        self._edges: dict[tuple, int] = {}
        # leaf node -> [(order of addition, rule)]
        self._leaves: dict[int, list[tuple[int, Rule]]] = {}
        self._redexes: dict[Term, list[tuple[int, int, Rule, dict]]] = {}

    def __len__(self):
        return len(self.rules)

    def add(self, rule: Rule):
        if rule.lhs.kind == "app":
            node = 0
            for t in _preorder(rule.lhs):
                key = ((node, None, None) if t.kind == "pvar"
                       else (node, t.kind, t.label))
                child = self._edges.get(key)
                if child is None:
                    child = self._edges[key] = len(self._edges) + 1
                node = child
            self._leaves.setdefault(node, []).append((len(self.rules), rule))
        self.rules.append(rule)
        self._redexes.clear()

    def redexes(self, term: Term) -> list[tuple[int, int, Rule, dict]]:
        """``(position, order of addition, rule, bindings)`` for each rule
        whose left side matches the term at a preorder position, with the
        bindings of that match.  The returned list is shared; do not change
        it.
        """
        found = self._redexes.get(term)
        if found is not None:
            return found
        found = self._root_redexes(term)
        offset = 1
        for arg in term.args:
            found.extend((offset + position, order, rule, bindings)
                         for position, order, rule, bindings
                         in self.redexes(arg))
            offset += arg.size
        self._redexes[term] = found
        return found

    def _root_redexes(self, term: Term) -> list[tuple[int, int, Rule, dict]]:
        """The redexes at the root of a term.

        The walk keeps the subterms still to read as a linked list
        ``(term, rest)``: a symbol edge reads one node and queues its
        arguments, a wildcard skips one whole subterm.  A symbol has one
        arity in every substrate, so a path that reaches a leaf of the tree
        has read exactly the term.
        """
        edges, leaves = self._edges, self._leaves
        out = []
        root = edges.get((0, term.kind, term.label))
        if root is None:
            return out
        stack = [(root, _queue(term.args, None))]
        while stack:
            node, pending = stack.pop()
            found = leaves.get(node)
            if found is not None:
                for order, rule in found:
                    bindings = match(rule.lhs, term)
                    if bindings is not None:
                        out.append((0, order, rule, bindings))
                continue
            t, rest = pending
            child = edges.get((node, t.kind, t.label))
            if child is not None:
                stack.append((child, _queue(t.args, rest)))
            child = edges.get((node, None, None))
            if child is not None:
                stack.append((child, rest))
        return out


def _queue(args: tuple, rest):
    """The linked list of ``args`` in order, followed by ``rest``."""
    for arg in reversed(args):
        rest = (arg, rest)
    return rest


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


def _precedence(redex: tuple) -> tuple:
    position, order, rule, _ = redex
    return (-rule.hit_count, order, position)


def normalize(term: Term, ruleset: RuleSet) -> Term:
    """Rewrite to a fixpoint or the step cap.  The discovery loop does not
    rewrite; this is a library function.

    At each step the applicable rule with the smallest ``(-hit_count,
    order of addition)`` wins, at its first preorder position in the term;
    each application increments that rule's hit count.
    """
    if not ruleset.rules:
        return term
    for _ in range(NORMALIZE_STEP_CAP):
        found = ruleset.redexes(term)
        if not found:
            return term
        position, _, rule, bindings = min(found, key=_precedence)
        term = _replace_at(term, position, substitute(rule.rhs, bindings))
        rule.hit_count += 1
    return term


def is_reducible(term: Term, ruleset: RuleSet) -> bool:
    """True when any rule matches any position of the term.

    Read-only probe: hit counts are not touched, so filter checks cannot
    perturb normalization order.
    """
    return bool(ruleset.redexes(term))


# ---------------------------------------------------------------------------
# The pseudo-random stream
# ---------------------------------------------------------------------------

RAW_BLOCK = 512          # Philox words read per refill
_U32 = 1 << 32


class PhiloxStream:
    """The draws of ``np.random.Generator(np.random.Philox(seed))``, decoded
    from the raw 64-bit Philox words in Python.

    It answers the calls the engine makes, ``integers(high)``,
    ``integers(low, high)``, ``integers(low, high, size=n)`` (a list) and
    ``random()``, with the values and the stream position numpy's would
    have.  As numpy does for an int64 range of at most 2**32 values, a
    bounded draw over r values takes a 32-bit word u and returns
    ``low + (u*r >> 32)``, drawing again while ``u*r mod 2**32`` falls below
    ``(2**32 - r) mod r`` (Lemire's multiply-shift); a range of one value
    draws nothing.  A 32-bit word is the low half of a Philox word, whose
    high half is kept for the next 32-bit word.  ``random()`` is the top 53
    bits of a fresh Philox word and leaves a kept half alone.  A wider range
    is refused: numpy draws it from whole words.

    The stream owns its Philox state, so reading RAW_BLOCK words ahead
    changes no draw.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, seed: np.random.SeedSequence):
        self._bits = np.random.Philox(seed)
        self._words = iter(())
        self._half = None

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._bits.random_raw(RAW_BLOCK).tolist())
            return next(self._words)

    def _below(self, span: int) -> int:
        """A draw uniform in [0, span)."""
        if span == 1:
            return 0
        if not 1 < span <= _U32:
            raise ValueError(f"cannot draw from a range of {span} values")
        threshold = (_U32 - span) % span
        while True:
            u = self._half
            if u is None:
                word = self._word()
                self._half, u = word >> 32, word & 0xFFFFFFFF
            else:
                self._half = None
            m = u * span
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def integers(self, low: int, high: int | None = None,
                 size: int | None = None):
        """An int uniform in [low, high), or in [0, low) without ``high``;
        with ``size``, a list of that many."""
        if high is None:
            low, high = 0, low
        if size is None:
            return low + self._below(high - low)
        return [low + self._below(high - low) for _ in range(size)]

    def random(self) -> float:
        """A float uniform in [0, 1), on a grid of 2**-53."""
        return (self._word() >> 11) * 2.0 ** -53


# ---------------------------------------------------------------------------
# Environments and soundness
# ---------------------------------------------------------------------------

def _sample_value(sort: str, rng: PhiloxStream):
    """Random value of a sort: ints uniform in [-10, 10], list lengths in [0, 5]."""
    if sort == INT:
        return int(rng.integers(INT_LOW, INT_HIGH + 1))
    if sort == INTLIST:
        length = int(rng.integers(0, LIST_LEN_MAX + 1))
        return tuple(map(int, rng.integers(INT_LOW, INT_HIGH + 1, size=length)))
    raise ConfigError(f"cannot sample a value of sort {sort}")


def sample_env(spec: SubstrateSpec, rng: PhiloxStream) -> dict:
    """Random environment over the substrate's variables, in grammar order."""
    return {name: _sample_value(sort, rng) for name, sort in spec.variables}


def _environments(spec: SubstrateSpec, rng: PhiloxStream):
    """The environments a term is judged on: every assignment of the boolean
    domain's variables, or a lazy stream of SOUND_SAMPLES sampled ones, so
    that a caller that stops early draws no more than it read."""
    if spec.exhaustive_bool:
        names = [name for name, _ in spec.variables]
        return [dict(zip(names, values)) for values
                in itertools.product((False, True), repeat=len(names))]
    return (sample_env(spec, rng) for _ in range(SOUND_SAMPLES))


@functools.cache
def _boundary_environments(spec: SubstrateSpec) -> tuple[dict, ...]:
    """One environment per pair of BOUNDARY_VALUES, over a sampled
    substrate's variables.  The environments are shared; do not change
    them."""
    return tuple({name: {INT: n, INTLIST: xs}[sort]
                  for name, sort in spec.variables}
                 for n, xs in BOUNDARY_VALUES)


def sound(lhs: Term, rhs: Term, spec: SubstrateSpec,
          rng: PhiloxStream) -> bool:
    """Semantic equivalence check: exact value equality on every boolean
    assignment, or on the boundary environments (which draw nothing) and
    then 12 random ones, until the first mismatch.  The discovery loop
    calls it for the sampled domains only: a boolean fingerprint already is
    this check."""
    envs = _environments(spec, rng)
    if not spec.exhaustive_bool:
        envs = itertools.chain(_boundary_environments(spec), envs)
    return all(evaluate(lhs, env) == evaluate(rhs, env) for env in envs)


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

    def __init__(self, rng: PhiloxStream):
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


def _random_leaf(spec: SubstrateSpec, sort: str, rng: PhiloxStream) -> Term:
    leaves = spec.leaves_by_sort[sort]
    return leaves[int(rng.integers(len(leaves)))]


def _grow(spec: SubstrateSpec, sort: str, depth_left: int,
          rng: PhiloxStream) -> Term:
    ops = spec.ops_by_result.get(sort)
    if depth_left <= 1 or not ops or rng.random() < LEAF_PROB:
        return _random_leaf(spec, sort, rng)
    op = ops[int(rng.integers(len(ops)))]
    args = tuple(_grow(spec, s, depth_left - 1, rng) for s in op.arg_sorts)
    return Term("app", op.name, None, args, op.result)


def _join(spec: SubstrateSpec, sort: str, t1: Term, t2: Term,
          rng: PhiloxStream) -> Term | None:
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

def _config_rng(config: ArchConfig) -> PhiloxStream:
    entropy = [
        int(config.seed),
        list(SUBSTRATES).index(config.domain),
        GENERATORS.index(config.generator),
        FILTERS.index(config.filter),
        int(config.depth),
        int(config.batch_size),
    ]
    return PhiloxStream(np.random.SeedSequence(entropy))


def run_discovery(config: ArchConfig) -> DiscoveryResult:
    """Run the full discovery loop for one configuration."""
    spec = SUBSTRATES[config.domain]
    rng = _config_rng(config)
    state = GeneratorState(rng)
    ruleset = RuleSet()
    seen: set[tuple[str, str]] = set()
    sizes: list[int] = []

    for _ in range(config.epochs):
        envs = list(_environments(spec, rng))
        values: dict[Term, tuple] = {}

        groups: dict[tuple, list[Term]] = {}
        for _ in range(config.batch_size):
            if len(spec.principal_sorts) > 1:
                sort = spec.principal_sorts[0 if rng.random() < 0.5 else 1]
            else:
                sort = spec.principal_sorts[0]
            cand = generate_candidate(state, config.generator, spec,
                                      config.depth, sort)
            fingerprint = (cand.sort,) + evaluate_each(cand, envs, values)
            groups.setdefault(fingerprint, []).append(cand)

        for members in groups.values():
            if len(members) < 2:
                continue
            lhs_c = min(members, key=lambda t: (-t.size, t.text))
            rhs_c = min(members, key=lambda t: (t.size, t.text))
            if lhs_c.size <= rhs_c.size:
                continue
            # A boolean fingerprint is the candidate's truth table: the two
            # ends agree on every assignment.
            if not spec.exhaustive_bool and not sound(lhs_c, rhs_c, spec, rng):
                continue
            lhs, rhs = generalize(lhs_c, rhs_c)
            if pattern_variables(rhs).keys() - pattern_variables(lhs).keys():
                continue
            key = (lhs.text, rhs.text)
            if key in seen:
                continue
            if config.filter == "novelty" and is_reducible(lhs, ruleset):
                continue
            ruleset.add(Rule(lhs, rhs))
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
    """The rules of a file written by dump_rules; a line that does not
    parse raises TermError prefixed with ``path:line``."""
    rules = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            lhs_text, _, rhs_text = line.partition("=>")
            try:
                lhs = parse_term(spec, lhs_text.strip())
                rhs = parse_term(spec, rhs_text.strip(),
                                 var_sorts=pattern_variables(lhs))
            except TermError as exc:
                raise TermError(f"{path}:{i + 1}: {exc}") from None
            rules.append(Rule(lhs, rhs))
    return rules
