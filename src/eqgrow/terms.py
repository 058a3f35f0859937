"""Typed terms over three fixed substrate grammars.

A term is an immutable expression tree: variables, constants, primitive
function/predicate names, and operator applications.  Uppercase variable
names (A, B, C, ...) are pattern variables; lowercase names are substrate
variables.  Every term carries its sort, node count, depth, and a canonical
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
from dataclasses import dataclass
from functools import cached_property, reduce

# Sort tags.  FUN2 is the sort of the bare binary-operator names that appear
# only as fold's first argument; like FUN1 and PRED it never occurs as the
# result sort of a committed rule.
INT = "Int"
BOOL = "Bool"
INTLIST = "IntList"
FUN1 = "Fun1"
PRED = "Pred"
FUN2 = "Fun2"


class TermError(Exception):
    """Malformed term construction or parse failure."""


class EvalError(Exception):
    """Evaluation failure (unbound variable, prim outside an operator)."""


class EnumerationTooLarge(ValueError):
    """Projected enumeration size exceeds the configured cap."""


@dataclass(frozen=True)
class Operator:
    name: str
    arg_sorts: tuple[str, ...]
    result: str


class Term:
    """Immutable expression node.

    kind is one of "var", "const", "prim", "app".  For constants ``value``
    holds the Python value (int, bool, or tuple for lists); for the other
    kinds it is None.  ``text`` is the canonical printed form and defines
    equality and hashing.
    """

    __slots__ = ("kind", "label", "value", "args", "sort", "size", "depth",
                 "text", "_hash")

    def __init__(self, kind, label, value, args, sort):
        self.kind = kind
        self.label = label
        self.value = value
        self.args = args
        self.sort = sort
        if args:
            self.size = 1 + sum(a.size for a in args)
            self.depth = 1 + max(a.depth for a in args)
            self.text = "(" + label + " " + " ".join(a.text for a in args) + ")"
        else:
            self.size = 1
            self.depth = 1
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


def var(name: str, sort: str) -> Term:
    return Term("var", name, None, (), sort)


def const(value, sort: str) -> Term:
    if sort == BOOL:
        label = "1" if value else "0"
    elif sort == INTLIST:
        label = "[]"
    else:
        label = str(value)
    return Term("const", label, value, (), sort)


def prim(name: str, sort: str) -> Term:
    return Term("prim", name, None, (), sort)


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
    """One substrate: operator signatures, variables, constants, prims.

    ``principal_sorts`` lists the result sorts candidate terms may take.
    ``exhaustive_bool`` selects the soundness protocol: exhaustive
    evaluation over all boolean assignments instead of random sampling.
    """

    domain_id: str
    operators: tuple[Operator, ...]
    variables: tuple[tuple[str, str], ...]
    constants: tuple[tuple[object, str], ...]
    prims: tuple[tuple[str, str], ...]
    principal_sorts: tuple[str, ...]
    exhaustive_bool: bool = False

    @cached_property
    def ops_by_result(self) -> dict[str, tuple[Operator, ...]]:
        out: dict[str, list[Operator]] = {}
        for op in self.operators:
            out.setdefault(op.result, []).append(op)
        return {s: tuple(v) for s, v in out.items()}

    @cached_property
    def ops_by_name(self) -> dict[str, Operator]:
        return {op.name: op for op in self.operators}

    @cached_property
    def leaves_by_sort(self) -> dict[str, tuple[Term, ...]]:
        """Leaf terms per sort: variables first, then constants, then prims."""
        out: dict[str, list[Term]] = {}
        for name, sort in self.variables:
            out.setdefault(sort, []).append(var(name, sort))
        for value, sort in self.constants:
            out.setdefault(sort, []).append(const(value, sort))
        for name, sort in self.prims:
            out.setdefault(sort, []).append(prim(name, sort))
        return {s: tuple(v) for s, v in out.items()}

    @cached_property
    def variable_sorts(self) -> dict[str, str]:
        return dict(self.variables)


ARITH = SubstrateSpec(
    domain_id="arith",
    operators=(
        Operator("+", (INT, INT), INT),
        Operator("*", (INT, INT), INT),
    ),
    variables=(("x", INT), ("y", INT), ("z", INT)),
    constants=((0, INT), (1, INT), (2, INT)),
    prims=(),
    principal_sorts=(INT,),
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
    principal_sorts=(BOOL,),
    exhaustive_bool=True,
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
    principal_sorts=(INTLIST, INT),
)

SUBSTRATES = {"arith": ARITH, "bool": BOOLDOM, "list": LIST}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

UNARY_FUNCS = {
    "inc": lambda v: v + 1,
    "dec": lambda v: v - 1,
    "double": lambda v: 2 * v,
    "square": lambda v: v * v,
    "neg": lambda v: -v,
    "id": lambda v: v,
}

PREDICATES = {
    "is_pos": lambda v: v > 0,
    "is_neg": lambda v: v < 0,
    "is_zero": lambda v: v == 0,
    "nonzero": lambda v: v != 0,
    "is_even": lambda v: v % 2 == 0,
    "is_odd": lambda v: v % 2 != 0,
}

BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def evaluate(term: Term, env: dict):
    """Evaluate a concrete term under an environment binding its variables.

    List operations are total: map/filter of the empty list return (), fold
    of the empty list returns its init argument.  Raises EvalError on an
    unbound variable (a harness bug, never expected in normal flow).
    """
    k = term.kind
    if k == "var":
        try:
            return env[term.label]
        except KeyError:
            raise EvalError(f"unbound variable {term.label!r}") from None
    if k == "const":
        return term.value
    if k == "prim":
        raise EvalError(f"primitive {term.label!r} evaluated outside an operator")
    op = term.label
    a = term.args
    if op == "+" or op == "-" or op == "*":
        return BINOPS[op](evaluate(a[0], env), evaluate(a[1], env))
    if op == "and":
        return evaluate(a[0], env) and evaluate(a[1], env)
    if op == "or":
        return evaluate(a[0], env) or evaluate(a[1], env)
    if op == "not":
        return not evaluate(a[0], env)
    if op == "map":
        f = UNARY_FUNCS[a[0].label]
        return tuple(f(v) for v in evaluate(a[1], env))
    if op == "filter":
        p = PREDICATES[a[0].label]
        return tuple(v for v in evaluate(a[1], env) if p(v))
    if op == "fold":
        f = BINOPS[a[0].label]
        return reduce(f, evaluate(a[2], env), evaluate(a[1], env))
    if op == "reverse":
        return tuple(reversed(evaluate(a[0], env)))
    if op == "length":
        return len(evaluate(a[0], env))
    if op == "append":
        return evaluate(a[0], env) + evaluate(a[1], env)
    if op == "cons":
        return (evaluate(a[0], env),) + evaluate(a[1], env)
    raise EvalError(f"unknown operator {op!r}")


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
        if p.kind == "var" and p.label[0].isupper():
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


def substitute(pattern: Term, bindings: dict, partial: bool = False) -> Term:
    """Replace each pattern variable in ``pattern`` with its binding.

    A missing binding is an error unless ``partial`` is set, in which case
    the pattern variable stays in place.
    """
    if pattern.kind == "var" and pattern.label[0].isupper():
        got = bindings.get(pattern.label)
        if got is not None:
            return got
        if partial:
            return pattern
        raise TermError(f"no binding for pattern variable {pattern.label}")
    if not pattern.args:
        return pattern
    return Term("app", pattern.label, None,
                tuple(substitute(a, bindings, partial) for a in pattern.args),
                pattern.sort)


def unify(p: Term, q: Term) -> Term | None:
    """The most general common instance of two patterns, or None.

    Pattern variables of one name are one variable, so rename one side
    apart to unify independent patterns.  A sort clash fails, as does
    binding a variable to a term that contains it (the occurs check).
    """
    bindings: dict[str, Term] = {}

    def resolve(t: Term) -> Term:
        while t.kind == "var" and t.label in bindings:
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
        if b.kind == "var" and b.label[0].isupper():
            a, b = b, a
        if a.kind == "var" and a.label[0].isupper():
            if a.label in free_variables(b):
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
        if t.kind == "var" and not t.label[0].isupper():
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


def free_variables(term: Term) -> set[str]:
    out: set[str] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t.kind == "var":
            out.add(t.label)
        stack.extend(t.args)
    return out


def pattern_variables(term: Term) -> set[str]:
    return {name for name in free_variables(term) if name[0].isupper()}


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------

DEFAULT_ENUM_CAP = 10_000_000


def count_terms(spec: SubstrateSpec, sort: str, max_depth: int) -> int:
    """Exact count of well-sorted terms of ``sort`` with depth <= max_depth.

    Per-sort recurrence: leaves plus, for each operator of the sort, the
    product of the depth-(d-1) counts of its argument sorts.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    memo: dict[tuple[str, int], int] = {}

    def count(s: str, d: int) -> int:
        key = (s, d)
        got = memo.get(key)
        if got is not None:
            return got
        total = len(spec.leaves_by_sort.get(s, ()))
        if d > 1:
            for op in spec.ops_by_result.get(s, ()):
                prod = 1
                for arg_sort in op.arg_sorts:
                    prod *= count(arg_sort, d - 1)
                total += prod
        memo[key] = total
        return total

    return count(sort, max_depth)


def enumerate_terms(spec: SubstrateSpec, sort: str, max_depth: int,
                    cap: int = DEFAULT_ENUM_CAP) -> list[Term]:
    """All well-sorted terms of ``sort`` up to ``max_depth``, canonically ordered.

    Order: leaves first (variables, constants, prims in grammar order), then
    operators in grammar order with argument tuples in lexicographic
    recursion.  Refuses with EnumerationTooLarge when the projected count
    exceeds ``cap``.
    """
    projected = count_terms(spec, sort, max_depth)
    if projected > cap:
        raise EnumerationTooLarge(
            f"enumeration too large: {projected} terms of {sort} at depth "
            f"{max_depth} exceeds cap {cap}")
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

def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                tokens.append("".join(cur))
                cur = []
            tokens.append(ch)
        elif ch.isspace():
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def parse_term(spec: SubstrateSpec, text: str, sort: str | None = None,
               var_sorts: dict[str, str] | None = None) -> Term:
    """Parse the canonical prefix text form back into a Term.

    ``sort`` is the expected sort when it cannot be inferred (a bare pattern
    variable); ``var_sorts`` can pre-assign sorts to pattern variables, as
    when parsing a rule's right side with the left side's variables.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise TermError("empty term text")
    pattern_sorts = dict(var_sorts or {})
    pos = 0

    def atom(tok: str, expected: str | None) -> Term:
        if tok[0].isupper():
            s = pattern_sorts.get(tok, expected)
            if s is None:
                raise TermError(f"cannot infer sort of pattern variable {tok}")
            if pattern_sorts.setdefault(tok, s) != s:
                raise TermError(f"pattern variable {tok} used at two sorts")
            return var(tok, s)
        vsort = spec.variable_sorts.get(tok)
        if vsort is not None:
            return var(tok, vsort)
        for value, csort in spec.constants:
            if const(value, csort).label == tok and (expected is None or csort == expected):
                return const(value, csort)
        for name, psort in spec.prims:
            if name == tok and (expected is None or psort == expected):
                return prim(name, psort)
        raise TermError(f"unknown atom {tok!r} in {spec.domain_id}")

    def parse(expected: str | None) -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise TermError("unexpected end of term text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            op = spec.ops_by_name.get(tokens[pos])
            if op is None:
                raise TermError(f"unknown operator {tokens[pos]!r}")
            pos += 1
            args = [parse(s) for s in op.arg_sorts]
            if pos >= len(tokens) or tokens[pos] != ")":
                raise TermError(f"missing ')' in {text!r}")
            pos += 1
            return app(op, args)
        if tok == ")":
            raise TermError(f"unexpected ')' in {text!r}")
        return atom(tok, expected)

    term = parse(sort)
    if pos != len(tokens):
        raise TermError(f"trailing tokens in {text!r}")
    if sort is not None and term.sort != sort:
        raise TermError(f"parsed sort {term.sort}, expected {sort}")
    return term
