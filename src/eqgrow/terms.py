"""Typed terms over three fixed substrate grammars.

A term is an immutable expression tree: variables, constants, and operator
applications.  A primitive (a unary function, predicate or binary operator
passed to map, filter or fold) is a constant whose value is its function,
taken from the one table of meanings, ``MEANINGS``.  Uppercase variable
names (A, B, C, ...) are pattern variables; lowercase names are substrate
variables.  ``var`` makes that decision, once per variable, by giving a
pattern variable the kind "pvar"; every other check compares kinds.
Every term carries its sort, node count, and a canonical
prefix-notation text form, e.g. ``(+ x (* y 1))`` or ``(map inc xs)``.
Equality and hashing go through the canonical text, so terms behave as
values.

Three substrates are provided: integer arithmetic over {+, *}, boolean
algebra over {and, or, not}, and a higher-order integer-list domain with
map / filter / fold / reverse / length / append / cons plus named unary
functions and predicates.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

# Sort tags.  FUN2 is the sort of the bare binary-operator names that appear
# only as fold's first argument; like FUN1 and PRED it never occurs as the
# result sort of a committed rule.
INT = "Int"
BOOL = "Bool"
INTLIST = "IntList"
FUN1 = "Fun1"
PRED = "Pred"
FUN2 = "Fun2"


class TermError(ValueError):
    """Malformed term construction or parse failure."""


class EvalError(ValueError):
    """Evaluation of a term with an unbound variable."""


class EnumerationTooLarge(ValueError):
    """Projected enumeration size exceeds the configured cap."""


@dataclass(frozen=True)
class Operator:
    name: str
    arg_sorts: tuple[str, ...]
    result: str


class Term:
    """Immutable expression node.

    kind is one of "var" (a substrate variable), "pvar" (a pattern
    variable), "const", "app".  For constants ``value`` holds the Python
    value (int, bool, tuple for lists, or a primitive's function); for the
    other kinds it is None.  ``text`` is the canonical printed form and
    defines equality and hashing.
    """

    __slots__ = ("kind", "label", "value", "args", "sort", "size", "text",
                 "_hash")

    def __init__(self, kind, label, value, args, sort):
        self.kind = kind
        self.label = label
        self.value = value
        self.args = args
        self.sort = sort
        if args:
            self.size = 1 + sum(a.size for a in args)
            self.text = "(" + label + " " + " ".join(a.text for a in args) + ")"
        else:
            self.size = 1
            self.text = label
        self._hash = hash((self.text, sort))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self.text == other.text and self.sort == other.sort

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Term({self.text!r}, {self.sort})"

    def __str__(self):
        return self.text


def _is_pattern_name(name: str) -> bool:
    """The one definition: a variable name with an uppercase first letter
    names a pattern variable."""
    return name[0].isupper()


def var(name: str, sort: str) -> Term:
    """A pattern variable (kind "pvar") or a substrate variable (kind
    "var"), as its name says."""
    return Term("pvar" if _is_pattern_name(name) else "var", name, None, (), sort)


def const(value, sort: str) -> Term:
    if sort == BOOL:
        label = "1" if value else "0"
    elif sort == INTLIST:
        label = "[]"
    else:
        label = str(value)
    return Term("const", label, value, (), sort)


def app(op: Operator, args) -> Term:
    args = tuple(args)
    if len(args) != len(op.arg_sorts):
        raise TermError(f"{op.name} expects {len(op.arg_sorts)} args, got {len(args)}")
    for a, s in zip(args, op.arg_sorts):
        if a.sort != s:
            raise TermError(f"{op.name}: argument {a.text} has sort {a.sort}, wanted {s}")
    return Term("app", op.name, None, args, op.result)


def pattern_var_name(index: int) -> str:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if index < 26:
        return letters[index]
    return letters[index % 26] + str(index // 26)


# ---------------------------------------------------------------------------
# Substrate grammars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubstrateSpec:
    """One substrate: operator signatures, variables, constants, and the
    primitives' names and sorts.

    Everything else is derived from these, once per substrate: the
    principal sorts (the result sorts candidate terms take) and whether
    soundness is judged exhaustively over every assignment, which holds
    when every variable is Bool.  No two leaves of a substrate share a
    label.
    """

    domain_id: str
    operators: tuple[Operator, ...]
    variables: tuple[tuple[str, str], ...]
    constants: tuple[tuple[object, str], ...]
    prims: tuple[tuple[str, str], ...]

    @cached_property
    def ops_by_result(self) -> dict[str, tuple[Operator, ...]]:
        out: dict[str, list[Operator]] = {}
        for op in self.operators:
            out.setdefault(op.result, []).append(op)
        return {s: tuple(v) for s, v in out.items()}

    @cached_property
    def principal_sorts(self) -> tuple[str, ...]:
        """The operators' result sorts, in grammar order."""
        return tuple(self.ops_by_result)

    @cached_property
    def exhaustive_bool(self) -> bool:
        """Every variable is Bool, so every assignment can be enumerated."""
        return all(sort == BOOL for _, sort in self.variables)

    @cached_property
    def ops_by_name(self) -> dict[str, Operator]:
        return {op.name: op for op in self.operators}

    @cached_property
    def leaves_by_sort(self) -> dict[str, tuple[Term, ...]]:
        """Leaf terms per sort: variables first, then constants, then
        primitives, each a constant whose value is its meaning."""
        out: dict[str, list[Term]] = {}
        for name, sort in self.variables:
            out.setdefault(sort, []).append(var(name, sort))
        for value, sort in self.constants:
            out.setdefault(sort, []).append(const(value, sort))
        for name, sort in self.prims:
            out.setdefault(sort, []).append(
                Term("const", name, MEANINGS[name], (), sort))
        return {s: tuple(v) for s, v in out.items()}

    @cached_property
    def leaves_by_label(self) -> dict[str, Term]:
        """Each leaf term by its label, which no other leaf shares."""
        return {leaf.label: leaf for leaves in self.leaves_by_sort.values()
                for leaf in leaves}


ARITH = SubstrateSpec(
    domain_id="arith",
    operators=(
        Operator("+", (INT, INT), INT),
        Operator("*", (INT, INT), INT),
    ),
    variables=(("x", INT), ("y", INT), ("z", INT)),
    constants=((0, INT), (1, INT), (2, INT)),
    prims=(),
)

BOOLDOM = SubstrateSpec(
    domain_id="bool",
    operators=(
        Operator("and", (BOOL, BOOL), BOOL),
        Operator("or", (BOOL, BOOL), BOOL),
        Operator("not", (BOOL,), BOOL),
    ),
    variables=(("p", BOOL), ("q", BOOL), ("r", BOOL)),
    constants=((False, BOOL), (True, BOOL)),
    prims=(),
)

LIST = SubstrateSpec(
    domain_id="list",
    operators=(
        Operator("map", (FUN1, INTLIST), INTLIST),
        Operator("filter", (PRED, INTLIST), INTLIST),
        Operator("fold", (FUN2, INT, INTLIST), INT),
        Operator("reverse", (INTLIST,), INTLIST),
        Operator("length", (INTLIST,), INT),
        Operator("append", (INTLIST, INTLIST), INTLIST),
        Operator("cons", (INT, INTLIST), INTLIST),
        Operator("+", (INT, INT), INT),
        Operator("-", (INT, INT), INT),
        Operator("*", (INT, INT), INT),
    ),
    variables=(("xs", INTLIST), ("ys", INTLIST), ("x", INT), ("y", INT), ("z", INT)),
    constants=((0, INT), (1, INT), (2, INT), ((), INTLIST)),
    prims=(
        ("inc", FUN1), ("dec", FUN1), ("double", FUN1),
        ("square", FUN1), ("neg", FUN1), ("id", FUN1),
        ("is_pos", PRED), ("is_neg", PRED), ("is_zero", PRED),
        ("nonzero", PRED), ("is_even", PRED), ("is_odd", PRED),
        ("+", FUN2), ("-", FUN2), ("*", FUN2),
    ),
)

SUBSTRATES = {"arith": ARITH, "bool": BOOLDOM, "list": LIST}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# The meaning of each label, written once: an operator's as a function of its
# arguments' values, and a primitive's (the unary functions map takes, the
# predicates filter takes and the binary operators fold takes) as the value
# of its constant.  "+", "-" and "*" are both operators and fold's
# primitives, with one meaning.  List operations are total: map/filter of
# the empty list give (), fold of the empty list gives its init argument.
MEANINGS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "not": operator.not_,
    "map": lambda f, xs: tuple(map(f, xs)),
    "filter": lambda p, xs: tuple(filter(p, xs)),
    "fold": lambda f, init, xs: reduce(f, xs, init),
    "reverse": lambda xs: xs[::-1],
    "length": len,
    "append": operator.add,
    "cons": lambda x, xs: (x,) + xs,
    "inc": lambda v: v + 1,
    "dec": lambda v: v - 1,
    "double": lambda v: 2 * v,
    "square": lambda v: v * v,
    "neg": lambda v: -v,
    "id": lambda v: v,
    "is_pos": lambda v: v > 0,
    "is_neg": lambda v: v < 0,
    "is_zero": lambda v: v == 0,
    "nonzero": lambda v: v != 0,
    "is_even": lambda v: v % 2 == 0,
    "is_odd": lambda v: v % 2 != 0,
}


def evaluate(term: Term, env: dict):
    """Evaluate a term under an environment binding its variables, substrate
    and pattern variables alike, by name.

    Raises EvalError on an unbound variable (a harness bug, never expected
    in normal flow).
    """
    k = term.kind
    if k == "app":
        return MEANINGS[term.label](*[evaluate(a, env) for a in term.args])
    if k == "const":
        return term.value
    try:
        return env[term.label]
    except KeyError:
        raise EvalError(f"unbound variable {term.label!r}") from None


def evaluate_each(term: Term, envs: list[dict], memo: dict) -> tuple:
    """The term's values under each environment of ``envs``, as a tuple,
    from one walk of the term.

    ``memo`` maps each subterm walked to its tuple, so a subterm shared by
    several terms is evaluated once; it holds for this list of
    environments only.
    """
    values = memo.get(term)
    if values is not None:
        return values
    k = term.kind
    if k == "app":
        values = tuple(map(MEANINGS[term.label],
                           *[evaluate_each(a, envs, memo) for a in term.args]))
    elif k == "const":
        values = (term.value,) * len(envs)
    else:
        try:
            values = tuple(env[term.label] for env in envs)
        except KeyError:
            raise EvalError(f"unbound variable {term.label!r}") from None
    memo[term] = values
    return values


# ---------------------------------------------------------------------------
# Matching, substitution, generalization
# ---------------------------------------------------------------------------

def match(pattern: Term, term: Term):
    """Match a pattern against a term at the root.

    Returns the unique sort-preserving substitution mapping the pattern's
    pattern variables to subterms, or None.  A pattern variable occurring
    twice must bind equal subterms.  Pattern variables inside ``term`` are
    treated as opaque leaves.
    """
    bindings: dict[str, Term] = {}
    stack = [(pattern, term)]
    while stack:
        p, t = stack.pop()
        if p.kind == "pvar":
            bound = bindings.get(p.label)
            if bound is None:
                if p.sort != t.sort:
                    return None
                bindings[p.label] = t
            elif bound.text != t.text:
                return None
            continue
        if p.kind != t.kind or p.label != t.label or len(p.args) != len(t.args):
            return None
        stack.extend(zip(p.args, t.args))
    return bindings


def substitute(pattern: Term, bindings: dict) -> Term:
    """Replace each pattern variable in ``pattern`` with its binding; a
    missing binding is an error."""
    if pattern.kind == "pvar":
        got = bindings.get(pattern.label)
        if got is None:
            raise TermError(f"no binding for pattern variable {pattern.label}")
        return got
    if not pattern.args:
        return pattern
    return Term("app", pattern.label, None,
                tuple(substitute(a, bindings) for a in pattern.args),
                pattern.sort)


def unify(p: Term, q: Term) -> Term | None:
    """The most general common instance of two patterns, or None.

    Pattern variables of one name are one variable, so rename one side
    apart to unify independent patterns.  A sort clash fails, as does
    binding a variable to a term that contains it (the occurs check).
    """
    bindings: dict[str, Term] = {}

    def resolve(t: Term) -> Term:
        while t.kind == "pvar" and t.label in bindings:
            t = bindings[t.label]
        if not t.args:
            return t
        return Term("app", t.label, None, tuple(resolve(a) for a in t.args), t.sort)

    stack = [(p, q)]
    while stack:
        a, b = map(resolve, stack.pop())
        if a == b:
            continue
        if a.sort != b.sort:
            return None
        if b.kind == "pvar":
            a, b = b, a
        if a.kind == "pvar":
            if a.label in pattern_variables(b):
                return None
            bindings[a.label] = b
        elif a.kind != b.kind or a.label != b.label or len(a.args) != len(b.args):
            return None
        else:
            stack.extend(zip(a.args, b.args))
    return resolve(p)


def generalize(lhs: Term, rhs: Term) -> tuple[Term, Term]:
    """Replace free substrate variables of a term pair with pattern variables.

    One shared map covers both sides so the pair stays semantically linked;
    pattern variables are assigned in first-appearance order over a
    left-to-right preorder walk of lhs then rhs.
    """
    mapping: dict[str, Term] = {}

    def walk(t: Term) -> Term:
        if t.kind == "var":
            got = mapping.get(t.label)
            if got is None:
                got = var(pattern_var_name(len(mapping)), t.sort)
                mapping[t.label] = got
            return got
        if not t.args:
            return t
        return Term("app", t.label, None, tuple(walk(a) for a in t.args), t.sort)

    return walk(lhs), walk(rhs)


def subterms(term: Term) -> list[Term]:
    """All subterms of size >= 2, as a multiset (the term itself included)."""
    out: list[Term] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if t.size >= 2:
            out.append(t)
            stack.extend(t.args)
    return out


def pattern_variables(term: Term) -> dict[str, str]:
    """Each pattern variable's name and sort, in first-occurrence preorder."""
    out: dict[str, str] = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if t.kind == "pvar":
            out.setdefault(t.label, t.sort)
        else:
            stack.extend(reversed(t.args))
    return out


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------

ENUM_CAP = 10_000_000
COUNT_BITS_CAP = 1024  # counts square with each depth; past this, refuse


def count_terms(spec: SubstrateSpec, sort: str, max_depth: int) -> int:
    """Exact count of well-sorted terms of ``sort`` with depth <= max_depth.

    Refuses with EnumerationTooLarge, naming the depth, once a count passes
    COUNT_BITS_CAP bits.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    return _count_table(spec, max_depth, COUNT_BITS_CAP).get(sort, 0)


@lru_cache(maxsize=None)
def _count_table(spec: SubstrateSpec, max_depth: int,
                 bits_cap: int) -> dict[str, int]:
    """The count of terms of depth <= max_depth of every sort, computed once
    per substrate, depth and cap.

    Counted bottom-up, one depth at a time: leaves plus, for each operator
    of the sort, the product of the depth-(d-1) counts of its argument
    sorts.  A refused depth is not cached; it recounts only up to the
    depth whose count passes the cap.
    """
    counts: dict[str, int] = {}  # depth 0 holds no terms
    for d in range(1, max_depth + 1):
        counts = {s: len(spec.leaves_by_sort.get(s, ()))
                  + sum(math.prod(counts.get(a, 0) for a in op.arg_sorts)
                        for op in spec.ops_by_result.get(s, ()))
                  for s in spec.leaves_by_sort.keys() | spec.ops_by_result.keys()}
        if max(counts.values()).bit_length() > bits_cap:
            raise EnumerationTooLarge(
                f"depth {max_depth} too large: more than 2**{bits_cap} "
                f"terms of depth {d}")
    return counts


def enumerate_terms(spec: SubstrateSpec, sort: str, max_depth: int) -> list[Term]:
    """All well-sorted terms of ``sort`` up to ``max_depth``, canonically ordered.

    Order: leaves first (variables, constants, primitives in grammar
    order), then operators in grammar order with argument tuples in
    lexicographic recursion.  Refuses with EnumerationTooLarge when the
    projected count exceeds ENUM_CAP.
    """
    projected = count_terms(spec, sort, max_depth)
    if projected > ENUM_CAP:
        raise EnumerationTooLarge(
            f"enumeration too large: {projected} terms of {sort} at depth "
            f"{max_depth} exceeds cap {ENUM_CAP}")
    memo: dict[tuple[str, int], list[Term]] = {}

    def enum(s: str, d: int) -> list[Term]:
        key = (s, d)
        got = memo.get(key)
        if got is not None:
            return got
        terms = list(spec.leaves_by_sort.get(s, ()))
        if d > 1:
            for op in spec.ops_by_result.get(s, ()):
                arg_lists = [enum(arg_sort, d - 1) for arg_sort in op.arg_sorts]
                for args in itertools.product(*arg_lists):
                    terms.append(Term("app", op.name, None, args, op.result))
        memo[key] = terms
        return terms

    return enum(sort, max_depth)


# ---------------------------------------------------------------------------
# Canonical text round-trip
# ---------------------------------------------------------------------------

def parse_term(spec: SubstrateSpec, text: str,
               var_sorts: dict[str, str] | None = None) -> Term:
    """Parse the canonical prefix text form back into a Term.

    ``var_sorts`` pre-assigns sorts to pattern variables, as when parsing a
    rule's right side with the left side's variables; a pattern variable
    whose sort nothing fixes raises TermError.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise TermError("empty term text")
    pattern_sorts = dict(var_sorts or {})
    pos = 0

    def atom(tok: str, expected: str | None) -> Term:
        if _is_pattern_name(tok):
            s = pattern_sorts.get(tok, expected)
            if s is None:
                raise TermError(f"cannot infer sort of pattern variable {tok}")
            if pattern_sorts.setdefault(tok, s) != s:
                raise TermError(f"pattern variable {tok} used at two sorts")
            return var(tok, s)
        leaf = spec.leaves_by_label.get(tok)
        if leaf is not None and (leaf.kind == "var" or expected is None
                                 or leaf.sort == expected):
            return leaf
        raise TermError(f"unknown atom {tok!r} in {spec.domain_id}")

    def parse(expected: str | None) -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise TermError("unexpected end of term text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            name = tokens[pos] if pos < len(tokens) else ""
            op = spec.ops_by_name.get(name)
            if op is None:
                raise TermError(f"unknown operator {name!r} in {text!r}")
            pos += 1
            args = [parse(s) for s in op.arg_sorts]
            if pos >= len(tokens) or tokens[pos] != ")":
                raise TermError(f"missing ')' in {text!r}")
            pos += 1
            return app(op, args)
        if tok == ")":
            raise TermError(f"unexpected ')' in {text!r}")
        return atom(tok, expected)

    term = parse(None)
    if pos != len(tokens):
        raise TermError(f"trailing tokens in {text!r}")
    return term
