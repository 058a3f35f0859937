"""Reference computations kept apart from the eqgrow package.

Nothing here imports eqgrow.  Each oracle re-derives a result from the
documented method, so the benchmark can check the program's outputs
against it:

* an evaluator for the three grammars, working on the printed term text,
  with its own seeded environments for soundness audits;
* the log-log OLS slope b of a trajectory;
* the five growth-law formulas, rss and AIC = n ln(rss/n) + 2p;
* the term-count recurrence and the root-position coverage count;
* the mu = 0 closed form of the closure ODE;
* a synthetic history export whose monthly tallies are known by
  construction.

``self_check()`` runs every oracle on small hand-worked cases; run this
file directly to see it pass.
"""

from __future__ import annotations

import math
import random

INT, BOOL, LIST = "Int", "Bool", "IntList"
FUN1, PRED, FUN2 = "Fun1", "Pred", "Fun2"

# Per domain: operator -> (argument sorts, result sort); constant text ->
# (value, sort); substrate variable -> sort; prim name -> sort.
GRAMMARS = {
    "arith": {
        "ops": {"+": ((INT, INT), INT), "*": ((INT, INT), INT)},
        "consts": {"0": (0, INT), "1": (1, INT), "2": (2, INT)},
        "vars": {"x": INT, "y": INT, "z": INT},
        "prims": {},
    },
    "bool": {
        "ops": {"and": ((BOOL, BOOL), BOOL), "or": ((BOOL, BOOL), BOOL),
                "not": ((BOOL,), BOOL)},
        "consts": {"0": (False, BOOL), "1": (True, BOOL)},
        "vars": {"p": BOOL, "q": BOOL, "r": BOOL},
        "prims": {},
    },
    "list": {
        "ops": {
            "map": ((FUN1, LIST), LIST), "filter": ((PRED, LIST), LIST),
            "fold": ((FUN2, INT, LIST), INT), "reverse": ((LIST,), LIST),
            "length": ((LIST,), INT), "append": ((LIST, LIST), LIST),
            "cons": ((INT, LIST), LIST), "+": ((INT, INT), INT),
            "-": ((INT, INT), INT), "*": ((INT, INT), INT),
        },
        "consts": {"0": (0, INT), "1": (1, INT), "2": (2, INT),
                   "[]": ((), LIST)},
        "vars": {"xs": LIST, "ys": LIST, "x": INT, "y": INT, "z": INT},
        "prims": {**{f: FUN1 for f in ("inc", "dec", "double", "square",
                                        "neg", "id")},
                  **{p: PRED for p in ("is_pos", "is_neg", "is_zero",
                                        "nonzero", "is_even", "is_odd")},
                  **{b: FUN2 for b in ("+", "-", "*")}},
    },
}

UNARY = {"inc": lambda v: v + 1, "dec": lambda v: v - 1,
         "double": lambda v: v + v, "square": lambda v: v * v,
         "neg": lambda v: -v, "id": lambda v: v}
PREDS = {"is_pos": lambda v: v > 0, "is_neg": lambda v: v < 0,
         "is_zero": lambda v: v == 0, "nonzero": lambda v: v != 0,
         "is_even": lambda v: v % 2 == 0, "is_odd": lambda v: v % 2 == 1}
BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b}

INT_LOW, INT_HIGH, LIST_LEN_MAX = -10, 10, 5


class OracleError(Exception):
    """Text the oracle cannot read under the stated grammar."""


# ---------------------------------------------------------------------------
# Term text: parse, sorts, size, evaluation
# ---------------------------------------------------------------------------

def parse(text: str):
    """Prefix s-expression -> nested tuples: (op, [args]) or an atom string."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        op = tokens[pos]
        pos += 1
        args = []
        while tokens[pos] != ")":
            args.append(node())
        pos += 1
        return (op, args)

    tree = node()
    if pos != len(tokens):
        raise OracleError(f"trailing tokens in {text!r}")
    return tree


def size(tree) -> int:
    if isinstance(tree, str):
        return 1
    return 1 + sum(size(a) for a in tree[1])


def is_pattern_var(tok: str) -> bool:
    return tok[0].isupper()


def pattern_vars(tree, domain: str, sort: str | None = None,
                 depth: int = 1, out: dict | None = None) -> dict:
    """Pattern variable -> (sort, deepest position depth; the root is 1)."""
    out = {} if out is None else out
    grammar = GRAMMARS[domain]
    if isinstance(tree, str):
        if is_pattern_var(tree):
            if sort is None:
                raise OracleError(f"cannot infer the sort of {tree}")
            known = out.get(tree)
            if known is not None and known[0] != sort:
                raise OracleError(f"{tree} used at two sorts")
            out[tree] = (sort, max(depth, known[1] if known else 0))
        return out
    arg_sorts, _ = grammar["ops"][tree[0]]
    if len(arg_sorts) != len(tree[1]):
        raise OracleError(f"{tree[0]} takes {len(arg_sorts)} arguments")
    for arg, arg_sort in zip(tree[1], arg_sorts):
        pattern_vars(arg, domain, arg_sort, depth + 1, out)
    return out


def term_depth(tree) -> int:
    if isinstance(tree, str):
        return 1
    return 1 + max(term_depth(a) for a in tree[1])


def compile_term(tree, domain: str):
    """A function env -> value that evaluates the term under the grammar."""
    grammar = GRAMMARS[domain]
    if isinstance(tree, str):
        if tree in grammar["consts"]:
            value = grammar["consts"][tree][0]
            return lambda env: value
        if is_pattern_var(tree) or tree in grammar["vars"]:
            return lambda env: env[tree]
        raise OracleError(f"atom {tree!r} cannot be evaluated on its own")
    op, args = tree
    if op == "map":
        f, xs = UNARY[args[0]], compile_term(args[1], domain)
        return lambda env: tuple(f(v) for v in xs(env))
    if op == "filter":
        p, xs = PREDS[args[0]], compile_term(args[1], domain)
        return lambda env: tuple(v for v in xs(env) if p(v))
    if op == "fold":
        f = BINARY[args[0]]
        init, xs = compile_term(args[1], domain), compile_term(args[2], domain)

        def fold(env):
            acc = init(env)
            for v in xs(env):
                acc = f(acc, v)
            return acc
        return fold
    parts = [compile_term(a, domain) for a in args]
    if op in BINARY:
        f, (a, b) = BINARY[op], parts
        return lambda env: f(a(env), b(env))
    if op == "and":
        a, b = parts
        return lambda env: a(env) and b(env)
    if op == "or":
        a, b = parts
        return lambda env: a(env) or b(env)
    if op == "not":
        (a,) = parts
        return lambda env: not a(env)
    if op == "reverse":
        (a,) = parts
        return lambda env: a(env)[::-1]
    if op == "length":
        (a,) = parts
        return lambda env: len(a(env))
    if op == "append":
        a, b = parts
        return lambda env: a(env) + b(env)
    if op == "cons":
        a, b = parts
        return lambda env: (a(env),) + b(env)
    raise OracleError(f"unknown operator {op!r}")


def evaluate(text: str, domain: str, env: dict):
    return compile_term(parse(text), domain)(env)


class Environments:
    """Seeded values for pattern variables, drawn per (name, sort).

    Ints are uniform in [-10, 10]; lists have a length uniform in [0, 5]
    and uniform int elements, as the engine's sampling convention states.
    """

    def __init__(self, seed: int, count: int):
        self.seed = seed
        self.count = count
        self._values: dict[tuple[str, str], list] = {}

    def values(self, name: str, sort: str) -> list:
        key = (name, sort)
        got = self._values.get(key)
        if got is None:
            rng = random.Random(f"{self.seed}:{name}:{sort}")
            if sort == INT:
                got = [rng.randint(INT_LOW, INT_HIGH) for _ in range(self.count)]
            elif sort == LIST:
                got = [tuple(rng.randint(INT_LOW, INT_HIGH)
                             for _ in range(rng.randint(0, LIST_LEN_MAX)))
                       for _ in range(self.count)]
            else:
                raise OracleError(f"no sampler for sort {sort}")
            self._values[key] = got
        return got

    def envs(self, var_sorts: dict[str, str], domain: str):
        names = sorted(var_sorts)
        if domain == "bool":
            for bits in range(1 << len(names)):
                yield {n: bool(bits >> i & 1) for i, n in enumerate(names)}
            return
        columns = [self.values(n, var_sorts[n]) for n in names]
        for i in range(self.count):
            yield {n: col[i] for n, col in zip(names, columns)}


def rule_sound(lhs_text: str, rhs_text: str, domain: str,
               envs: Environments) -> bool:
    """Both sides agree on every environment (all assignments for bool)."""
    lhs, rhs = parse(lhs_text), parse(rhs_text)
    var_sorts = {n: s for n, (s, _) in pattern_vars(lhs, domain).items()}
    f, g = compile_term(lhs, domain), compile_term(rhs, domain)
    return all(f(env) == g(env) for env in envs.envs(var_sorts, domain))


def rule_shape_problems(lhs_text: str, rhs_text: str, domain: str) -> list[str]:
    """Strictly size-decreasing, no right-side-only pattern variable."""
    lhs, rhs = parse(lhs_text), parse(rhs_text)
    problems = []
    if size(lhs) <= size(rhs):
        problems.append("not size-decreasing")
    lhs_vars = pattern_vars(lhs, domain)
    rhs_only = {t for t in _atoms(rhs) if is_pattern_var(t)} - set(lhs_vars)
    if rhs_only:
        problems.append(f"right-side-only variables {sorted(rhs_only)}")
    return problems


def _atoms(tree):
    if isinstance(tree, str):
        yield tree
        return
    for a in tree[1]:
        yield from _atoms(a)


# ---------------------------------------------------------------------------
# Log-log slope and the growth-law formulas
# ---------------------------------------------------------------------------

def loglog_slope(sizes, min_points: int = 4) -> float:
    """OLS slope of ln n on ln t over points with n >= 1; b = 0 with fewer
    than ``min_points`` such points or no spread."""
    pts = [(math.log(t), math.log(n))
           for t, n in enumerate(sizes, start=1) if n >= 1]
    if len(pts) < max(min_points, 2):
        return 0.0
    mt = math.fsum(p[0] for p in pts) / len(pts)
    mn = math.fsum(p[1] for p in pts) / len(pts)
    var = math.fsum((p[0] - mt) ** 2 for p in pts)
    if var == 0 or all(p[1] == pts[0][1] for p in pts):
        return 0.0
    return math.fsum((p[0] - mt) * (p[1] - mn) for p in pts) / var


def phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


FORMULAS = {
    "power_law": lambda p, t: p["a"] * t ** p["b"],
    "saturating_pl": lambda p, t: p["a"] * t ** p["k"] / (1.0 + p["mu"] * t ** p["k"]),
    "stretched_exp": lambda p, t: p["a"] * (1.0 - math.exp(-(t / p["tau"]) ** p["beta"])),
    "linear": lambda p, t: p["a"] + p["b"] * t,
    "log_normal": lambda p, t: p["a"] * phi((math.log(t) - p["m"]) / p["s"]),
}


def rss(model: str, params: dict, t, n) -> float:
    f = FORMULAS[model]
    return math.fsum((float(ni) - f(params, float(ti))) ** 2
                     for ti, ni in zip(t, n))


def aic(rss_value: float, n_points: int, n_params: int) -> float:
    return n_points * math.log(rss_value / n_points) + 2.0 * n_params


def r2(actual, predicted) -> float:
    mean = math.fsum(actual) / len(actual)
    ss_res = math.fsum((a - p) ** 2 for a, p in zip(actual, predicted))
    ss_tot = math.fsum((a - mean) ** 2 for a in actual)
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def closed_form_mu0(throughput: float, exponent: float, t: float) -> float:
    """S(t) = ((1-k) K t)^(1/(1-k)), the mu = 0 solution from S(0) = 0."""
    return ((1.0 - exponent) * throughput * t) ** (1.0 / (1.0 - exponent))


# ---------------------------------------------------------------------------
# Term counts and root-position coverage
# ---------------------------------------------------------------------------

def count_terms(domain: str, sort: str, depth: int, _memo=None) -> int:
    """Terms of ``sort`` with depth <= ``depth``: leaves plus, per operator,
    the product of its argument sorts' depth-1 counts."""
    memo = {} if _memo is None else _memo
    key = (domain, sort, depth)
    if key in memo:
        return memo[key]
    g = GRAMMARS[domain]
    total = (sum(1 for s in g["vars"].values() if s == sort)
             + sum(1 for _, s in g["consts"].values() if s == sort)
             + sum(1 for s in g["prims"].values() if s == sort))
    if depth > 1:
        for arg_sorts, result in g["ops"].values():
            if result == sort:
                prod = 1
                for a in arg_sorts:
                    prod *= count_terms(domain, a, depth - 1, memo)
                total += prod
    memo[key] = total
    return total


def root_coverage(pattern_text: str, domain: str, depth: int) -> int:
    """Depth-``depth`` terms the pattern matches at the root: per distinct
    variable, the count of its sort at depth d - (deepest position) + 1,
    multiplied over the variables."""
    tree = parse(pattern_text)
    if term_depth(tree) > depth:
        return 0
    total = 1
    for sort, deepest in pattern_vars(tree, domain).values():
        total *= count_terms(domain, sort, depth - deepest + 1)
    return total


# ---------------------------------------------------------------------------
# Synthetic history export
# ---------------------------------------------------------------------------

MATCHING_PATHS = ("Mathlib/{a}/{b}.lean", "Mathlib/{a}/{c}/{b}.lean",
                  "Mathlib/{b}.lean", "Mathlib/{a}/{c}/{a}/{b}.lean")
DECOY_PATHS = ("Mathlib/{a}/{b}.md", "MathlibExtras/{a}/{b}.lean",
               "test/Mathlib/{b}.lean", "Mathlib.lean", "docs/{b}.lean",
               "Mathlib/{a}/{b}.lean.orig", "scripts/{b}.py")
AREAS = ("Algebra", "Order", "Topology", "Analysis", "Logic", "Data",
         "CategoryTheory", "NumberTheory", "LinearAlgebra", "Geometry")
ZONES = ("+00:00", "Z", "+02:00", "-05:00", "+09:30")


def history_commits(seed: int, n_commits: int, n_months: int = 60,
                    first_year: int = 2019):
    """Commits as (hash, date text, [(status, path, matches)]).

    Monthly volume grows over the window; two interior months get no
    commits so the month axis has gaps.  ``matches`` marks the added
    paths that ``Mathlib/**/*.lean`` selects.
    """
    rng = random.Random(f"history:{seed}")
    months = [(first_year + m // 12, m % 12 + 1) for m in range(n_months)]
    gaps = set(rng.sample(range(1, n_months - 1), 2))
    weights = [0.0 if i in gaps else (1 + i) ** 0.7 for i in range(n_months)]
    total = sum(weights)
    per_month = [int(n_commits * w / total) for w in weights]
    per_month[-1] += n_commits - sum(per_month)
    commits = []
    for (year, month), count in zip(months, per_month):
        for _ in range(count):
            zone = rng.choice(ZONES)
            date = (f"{year:04d}-{month:02d}-{rng.randint(1, 28):02d}"
                    f"T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00{zone}")
            entries = []
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                names = dict(a=rng.choice(AREAS), c=rng.choice(AREAS),
                             b=f"F{rng.randrange(10 ** 6)}")
                if rng.random() < 0.7:
                    entries.append(("A", rng.choice(MATCHING_PATHS).format(**names), True))
                else:
                    entries.append(("A", rng.choice(DECOY_PATHS).format(**names), False))
            for _ in range(rng.randint(0, 2)):
                entries.append((rng.choice(("M", "D")),
                                f"Mathlib/{rng.choice(AREAS)}/G{rng.randrange(999)}.lean",
                                False))
            rng.shuffle(entries)
            commits.append((f"{rng.getrandbits(64):016x}", date, entries))
    return commits


def render_history(commits) -> str:
    """The documented export format, blank line between records."""
    chunks = []
    for commit_hash, date, entries in commits:
        lines = [f"commit {commit_hash} {date}"]
        lines += [f"{status}\t{path}" for status, path, _ in entries]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def history_tallies(commits):
    """Contiguous months, commits per month, matching new files per month."""
    counts: dict[str, list[int]] = {}
    for _, date, entries in commits:
        got = counts.setdefault(date[:7], [0, 0])
        got[0] += 1
        got[1] += sum(1 for status, _, hit in entries if status == "A" and hit)
    first, last = min(counts), max(counts)
    months = []
    y, m = int(first[:4]), int(first[5:7])
    while f"{y:04d}-{m:02d}" <= last:
        months.append(f"{y:04d}-{m:02d}")
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return (months, [counts.get(mo, [0, 0])[0] for mo in months],
            [counts.get(mo, [0, 0])[1] for mo in months])


# ---------------------------------------------------------------------------
# Hand-worked cases
# ---------------------------------------------------------------------------

def self_check() -> list[str]:
    """Every oracle on cases worked out by hand; returns the failures."""
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    expect("fold is a left fold",
           evaluate("(fold - 0 (cons 2 (cons 1 [])))", "list", {}), -3)
    expect("filter/length", evaluate("(length (filter is_even A))", "list",
                                     {"A": (1, 2, 4, -3)}), 2)
    expect("map/append", evaluate("(append (map square A) (reverse A))",
                                  "list", {"A": (2, -3)}), (4, 9, -3, 2))
    expect("arith", evaluate("(* (+ A 1) 2)", "arith", {"A": 3}), 8)
    expect("bool constants", evaluate("(or 0 (not (and 1 P)))", "bool",
                                      {"P": True}), False)
    envs = Environments(seed=0, count=200)
    expect("sound list rule",
           rule_sound("(reverse (reverse A))", "A", "list", envs), True)
    expect("rule wrong only on lists holding 0",
           rule_sound("(filter nonzero A)", "A", "list", envs), False)
    expect("sound bool rule", rule_sound("(and A (or A B))", "A", "bool", envs), True)
    expect("unsound bool rule", rule_sound("(or A B)", "A", "bool", envs), False)
    expect("shape", rule_shape_problems("(+ A 0)", "(* B 1)", "arith"),
           ["not size-decreasing", "right-side-only variables ['B']"])
    expect("sizes", size(parse("(fold + 0 (cons A []))")), 6)

    expect("slope of n = t", loglog_slope([1, 2, 3, 4]), 1.0)
    expect("slope of n = 2 t^2", round(loglog_slope([2, 8, 18, 32, 50]), 12), 2.0)
    expect("too few points", loglog_slope([0, 0, 1, 1, 1]), 0.0)
    expect("flat", loglog_slope([3, 3, 3, 3]), 0.0)

    expect("power law", FORMULAS["power_law"]({"a": 2, "b": 0.5}, 4.0), 4.0)
    expect("saturating", FORMULAS["saturating_pl"]({"a": 2, "k": 1, "mu": 1}, 1.0), 1.0)
    expect("stretched", FORMULAS["stretched_exp"]({"a": 1, "tau": 1, "beta": 1}, 1.0),
           1.0 - math.exp(-1.0))
    expect("linear", FORMULAS["linear"]({"a": 1, "b": 2}, 3.0), 7.0)
    expect("log-normal", FORMULAS["log_normal"]({"a": 2, "m": 0, "s": 1}, 1.0), 1.0)
    expect("rss", rss("linear", {"a": 0, "b": 1}, [1, 2], [2, 1]), 2.0)
    expect("aic", aic(2.0, 2, 1), 2.0)
    expect("r2 perfect", r2([1, 2, 3], [1, 2, 3]), 1.0)
    expect("r2 of the mean", r2([1, 2, 3], [2, 2, 2]), 0.0)

    expect("arith depth 2", count_terms("arith", INT, 2), 78)
    expect("bool depth 2", count_terms("bool", BOOL, 2), 60)
    expect("list IntList depth 2", count_terms("list", LIST, 2), 69)
    expect("(+ A A) at depth 2", root_coverage("(+ A A)", "arith", 2), 6)
    expect("(+ A B) at depth 2", root_coverage("(+ A B)", "arith", 2), 36)
    expect("(* A (+ B 0)) at depth 3", root_coverage("(* A (+ B 0))", "arith", 3), 78 * 6)
    expect("pattern deeper than the space",
           root_coverage("(+ (+ (+ A 0) 0) 0)", "arith", 3), 0)

    expect("closed form k = 0", closed_form_mu0(2.0, 0.0, 3.0), 6.0)
    expect("closed form k = 1/2", closed_form_mu0(1.0, 0.5, 4.0), 4.0)

    hand = [("a1", "2021-05-03T10:00:00+02:00",
             [("A", "Mathlib/Algebra/Basic.lean", True),
              ("A", "docs/readme.md", False), ("M", "Mathlib/X.lean", False)]),
            ("a2", "2021-05-20T00:00:00Z", []),
            ("b1", "2021-07-01T00:00:00-05:00",
             [("A", "Mathlib/Top.lean", True), ("A", "Mathlib.lean", False)])]
    expect("tallies", history_tallies(hand),
           (["2021-05", "2021-06", "2021-07"], [2, 0, 1], [1, 0, 1]))
    expect("render", render_history(hand[1:2]), "commit a2 2021-05-20T00:00:00Z\n")
    return failures


if __name__ == "__main__":
    problems = self_check()
    for line in problems:
        print("FAIL", line)
    print("oracle self-check:", "FAIL" if problems else "PASS")
    raise SystemExit(1 if problems else 0)
