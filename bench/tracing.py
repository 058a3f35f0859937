"""Spans and counters around the public functions of eqgrow's modules.

A traced round replaces module attributes with timing wrappers, at the
name each caller looks up: ``eqgrow.engine.match`` is what ``normalize``
calls, ``eqgrow.sweep.select_model`` is what ``analyze`` calls, and so on.
Calls that recurse inside a module (``terms.evaluate``) are seen once, at
the boundary.  Spans record name, start, end and parent; the hot leaf calls
(match, substitute, evaluate, enumerate_terms) are aggregated into a count
and a total time instead.  A span's self time is its duration minus the
time of the spans and leaf calls inside it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name); a callable name gets the call's arguments.
SPANS = (
    ("eqgrow.engine", "run_discovery", "engine.run_discovery"),
    ("eqgrow.sweep", "run_discovery", "engine.run_discovery"),
    ("eqgrow.engine", "generate_candidate", "engine.generate_candidate"),
    ("eqgrow.engine", "normalize", "engine.normalize"),
    ("eqgrow.engine", "is_reducible", "engine.is_reducible"),
    ("eqgrow.engine", "sound", "engine.sound"),
    ("eqgrow.sweep", "run_sweep", "sweep.run_sweep"),
    ("eqgrow.sweep", "read_sweep_file", "sweep.read_sweep_file"),
    ("eqgrow.sweep", "analyze", "sweep.analyze"),
    ("eqgrow.sweep", "select_model", "growth.select_model"),
    ("eqgrow.sweep", "fit_power_law", "growth.fit_power_law"),
    ("eqgrow.growth", "select_model", "growth.select_model"),
    ("eqgrow.growth", "fit_power_law", "growth.fit_power_law"),
    ("eqgrow.growth", "fit_model",
     lambda model, *a, **k: f"growth.fit_model.{model}"),
    ("eqgrow.growth", "bootstrap_ci", "growth.bootstrap_ci"),
    ("eqgrow.growth", "oos_forecast", "growth.oos_forecast"),
    ("eqgrow.closure", "estimate_mu", "closure.estimate_mu"),
    ("eqgrow.closure", "simulate_ode", "closure.simulate_ode"),
    ("eqgrow.regression", "fit_gbm", "regression.fit_gbm"),
    ("eqgrow.regression", "kfold_cv", "regression.kfold_cv"),
    ("eqgrow.regression", "transfer_eval", "regression.transfer_eval"),
    ("eqgrow.regression", "pooled_eval", "regression.pooled_eval"),
    ("eqgrow.ingest", "parse_log", "ingest.parse_log"),
    ("eqgrow.ingest", "monthly_series", "ingest.monthly_series"),
)

LEAVES = (
    ("eqgrow.engine", "match", "engine.match"),
    ("eqgrow.engine", "substitute", "engine.substitute"),
    ("eqgrow.engine", "evaluate", "engine.evaluate"),
    ("eqgrow.closure", "enumerate_terms", "closure.enumerate_terms"),
)

FAMILIES = ("power_law", "saturating_pl", "stretched_exp", "linear",
            "log_normal")


class Tracer:
    """Spans and aggregated leaf calls of one traced round."""

    def __init__(self):
        self.spans: list[tuple] = []          # (id, name, parent, start, end)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.items: Counter = Counter()       # e.g. terms enumerated
        self._stack: list[list] = []          # [id, name, start, child_s]
        self._patched: list[tuple] = []
        self._ids = itertools.count()
        self.origin = time.perf_counter()

    def _span(self, fn, name):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = stack[-1][0] if stack else None
            frame = [next(self._ids), label, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.spans.append((frame[0], label, parent,
                                   frame[2] - self.origin, end - self.origin))
                self.calls[label] += 1
                self.total_s[label] += duration
                self.self_s[label] += duration - frame[3]
                if label.startswith("growth.fit_model.") and (
                        kwargs.get("start_override") is not None or len(args) > 2):
                    self.calls["growth.bootstrap.refit"] += 1
                    self.total_s["growth.bootstrap.refit"] += duration
                if stack:
                    stack[-1][3] += duration
        return wrapper

    def _leaf(self, fn, name):
        stack, clock = self._stack, time.perf_counter
        sized = name == "closure.enumerate_terms"

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.calls[name] += 1
                self.total_s[name] += duration
                if stack:
                    stack[-1][3] += duration
            if sized:
                self.items[name] += len(result)
            return result
        return wrapper

    def install(self):
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, self._span, name)
        for module_name, attr, name in LEAVES:
            self._patch(module_name, attr, self._leaf, name)

    def _patch(self, module_name, attr, wrap, name):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrap(original, name))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Spans one per line, then one line per aggregated leaf name."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            for _, _, name in LEAVES:
                fh.write(json.dumps({"leaf": name, "calls": self.calls[name],
                                     "total_s": self.total_s[name]}) + "\n")

    def layer_metrics(self, rules: int) -> dict[str, float]:
        """The per-layer figures of one round; 0 where a layer did not run.

        ``rules`` is the number of rules the round's discovery runs
        committed; candidates are the calls to generate_candidate.
        """
        c, tot, own = self.calls, self.total_s, self.self_s
        candidates = c["engine.generate_candidate"]
        refits = c["growth.bootstrap.refit"]
        out = {
            "engine.normalize.calls": c["engine.normalize"],
            "engine.normalize.self_s": own["engine.normalize"],
            "engine.rewrite_steps": c["engine.substitute"],
            "engine.match_calls": c["engine.match"],
            "engine.match_per_candidate":
                c["engine.match"] / candidates if candidates else 0.0,
            "engine.is_reducible.calls": c["engine.is_reducible"],
            "engine.is_reducible.self_s": own["engine.is_reducible"],
            "engine.evaluate_calls": c["engine.evaluate"],
            "engine.evaluate.self_s": tot["engine.evaluate"],
            "engine.sound.calls": c["engine.sound"],
            "engine.sound.self_s": own["engine.sound"],
            "engine.generate_candidate.self_s": own["engine.generate_candidate"],
            "engine.rules_committed": rules,
            "engine.commit_ratio": rules / candidates if candidates else 0.0,
            "sweep.run_sweep.s": tot["sweep.run_sweep"],
            "sweep.analyze.self_s": own["sweep.analyze"],
            "sweep.read_sweep_file.s": tot["sweep.read_sweep_file"],
        }
        for family in FAMILIES:
            out[f"growth.fit_model.{family}.calls"] = c[f"growth.fit_model.{family}"]
            out[f"growth.fit_model.{family}.self_s"] = own[f"growth.fit_model.{family}"]
        out.update({
            "growth.fit_power_law.calls": c["growth.fit_power_law"],
            "growth.select_model.self_s": own["growth.select_model"],
            "growth.bootstrap_ci.s": tot["growth.bootstrap_ci"],
            "growth.bootstrap.refit_ms":
                1000.0 * tot["growth.bootstrap.refit"] / refits if refits else 0.0,
            "growth.oos_forecast.s": tot["growth.oos_forecast"],
            "closure.estimate_mu.self_s": own["closure.estimate_mu"],
            "closure.enumerate_calls": c["closure.enumerate_terms"],
            "closure.enumerated_terms": self.items["closure.enumerate_terms"],
            "closure.simulate_ode.s": tot["closure.simulate_ode"],
            "regression.fit_gbm.calls": c["regression.fit_gbm"],
            "regression.fit_gbm.self_s": own["regression.fit_gbm"],
            "regression.kfold_cv.s": tot["regression.kfold_cv"],
            "regression.transfer_eval.s": tot["regression.transfer_eval"],
            "ingest.parse_log.s": tot["ingest.parse_log"],
            "ingest.monthly_series.s": tot["ingest.monthly_series"],
        })
        return out
