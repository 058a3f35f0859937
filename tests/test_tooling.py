"""Checks on the code itself.

The benchmark's tracer wraps eqgrow functions by module and attribute
name, so a renamed or deleted function would silently drop out of a traced
run; every name it wraps must still resolve.  And every public definition
in the package needs a use in src/ or bench/, so that code only the tests
reach does not pile up; so does every field, slot, method and property of
a class in the package.  And the engine draws only through its decoder of
Philox words, never through a numpy Generator of its own.  And only report
imports csv, so the CSV format has one owner.  And only a log_normal fit
loads scipy, so that a discovery process does not pay for it.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_traced_names_resolve():
    # Executed from source, so that no bytecode is written next to it.
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         tracing.__dict__)
    names = [(module, attribute)
             for module, attribute, _ in tracing.SPANS + tracing.LEAVES]
    assert names
    missing = [(module, attribute) for module, attribute in names
               if not callable(getattr(importlib.import_module(module),
                                       attribute, None))]
    assert missing == []


# Public definitions that nothing in src/ or bench/ uses yet, with why each
# stays.  A name that gains a use must leave this list.
UNREFERENCED = {
    "power_law_exponent": "gets its caller in the closure-fit report (ROADMAP 5)",
}


def _sources() -> dict:
    return {path: path.read_text(encoding="utf-8")
            for folder in ("src", "bench")
            for path in sorted((ROOT / folder).rglob("*.py"))}


def test_public_definitions_have_a_use():
    sources = _sources()
    unused = []
    for path in sorted((ROOT / "src" / "eqgrow").glob("*.py")):
        for node in ast.parse(sources[path]).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                uses = sum(len(word.findall(text)) for text in sources.values())
                if uses < 2:  # the definition itself is one
                    unused.append(node.name)
    assert sorted(unused) == sorted(UNREFERENCED)


def _slots(node) -> list:
    """The name constants of a ``__slots__ = (...)`` assignment, else []."""
    if (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets)):
        return [c for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
    return []


def _member_names(node) -> list:
    """The string constants that can name a member for access by name: the
    elements of a tuple, list or set literal (a field list walked with
    getattr), and the name argument of getattr, hasattr or setattr."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        names = node.elts
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr")
            and len(node.args) >= 2):
        names = node.args[1:2]
    else:
        return []
    return [c.value for c in names
            if isinstance(c, ast.Constant) and isinstance(c.value, str)]


def test_class_members_have_a_use():
    # A member is used when src/ or bench/ reads it as an attribute or names
    # it for access by name (_member_names), or when it overrides a member of
    # a base class (argparse calls _Parser.error); a slot's own declaration
    # does not count.  Names are not tied to their class, so a member that
    # shares its name with one read elsewhere passes.
    sources = _sources()
    used = set()
    for text in sources.values():
        tree = ast.parse(text)
        declared = {id(node.value) for node in ast.walk(tree) if _slots(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif id(node) not in declared:
                used.update(_member_names(node))
    unused = []
    for path in sorted((ROOT / "src" / "eqgrow").glob("*.py")):
        module = importlib.import_module(f"eqgrow.{path.stem}")
        for cls in ast.walk(ast.parse(sources[path])):
            if not isinstance(cls, ast.ClassDef):
                continue
            live = getattr(module, cls.name, object)  # object: not top-level
            inherited = {name for base in live.__mro__[1:] for name in vars(base)}
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names = [item.target.id]
                elif isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    names = [item.name]
                else:
                    names = [c.value for c in _slots(item)]
                unused += [f"{cls.name}.{name}" for name in names
                           if name not in used and name not in inherited]
    assert unused == []


def test_engine_builds_no_numpy_generator():
    # One draw path: the engine decodes Philox words itself (PhiloxStream),
    # so a Generator built in the engine would be a second one.
    engine = ROOT / "src" / "eqgrow" / "engine.py"
    built = [node.lineno for node in ast.walk(ast.parse(engine.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("Generator", "default_rng")]
    assert built == []


def test_only_report_reads_or_writes_csv():
    # One owner of the CSV format: report's read_csv and write_csv.
    importers = []
    for path in sorted((ROOT / "src" / "eqgrow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "csv" in names and path.name != "report.py":
                importers.append(path.name)
    assert importers == []


# The series is built with math.erf, so that only the fit can load scipy.
_SCIPY_PROBE = """
import json, math, sys
import eqgrow.engine, eqgrow.sweep, eqgrow.growth
from eqgrow.growth import GrowthSeries, fit_model
loaded = ["scipy" in sys.modules]
t = [float(i) for i in range(1, 201)]
n = [900.0 * 0.5 * (1.0 + math.erf((math.log(x) - 3.0) / (0.8 * math.sqrt(2.0))))
     for x in t]
fit = fit_model("log_normal", GrowthSeries(t, n))
loaded.append("scipy" in sys.modules)
print(json.dumps({"loaded": loaded, "params": fit.params, "converged": fit.converged}))
"""


def test_only_a_log_normal_fit_loads_scipy():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    probe = json.loads(out.stdout)
    assert probe["loaded"] == [False, True]
    assert probe["converged"]
    for name, value in {"a": 900.0, "m": 3.0, "s": 0.8}.items():
        assert abs(probe["params"][name] - value) < 1e-6 * value
