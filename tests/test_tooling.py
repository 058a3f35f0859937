"""The benchmark's tracer wraps eqgrow functions by module and attribute
name, so a renamed or deleted function would silently drop out of a traced
run.  This checks every name it wraps still resolves."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
