"""Spans and counters at shaploc's module boundaries, for the traced run only.

The hooks replace package functions with timing wrappers while a ``Hooks``
block is open and put the originals back when it closes, so the timed run
never executes a wrapper.  Spans are kept in memory and written out once
the run ends.  A hook whose target a later refactor removed is listed in
``Tracer.missing`` instead of raising.

Fine-grained calls (coalition scoring, attack offsets, value-function
calls) are recorded as leaves, a count and a time added to the enclosing
span, because a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import Counter

# layer -> per-layer metrics, and the end-to-end metric each should move
# on which workload (what a change to that layer is predicted to show).
LAYER_MAP = {
    "cli/suite": {"metrics": ["suite.render_share"],
                  "moves": "items_per_s on table2 (small)"},
    "harness": {"metrics": ["harness.threshold_share", "harness.trialgen_share",
                            "harness.simulate_peak_mib"],
                "moves": "threshold: items_per_s on table2, nothing on harness_n10; "
                         "trialgen: items_per_s on table2 (~1/3), a little on "
                         "harness_n10; simulate_peak_mib: peak_rss_mib on harness_n10"},
    "attacks": {"metrics": ["attacks.offsets_calls", "attacks.offsets_share"],
                "moves": "items_per_s on table2 and harness_n10 (small)"},
    "gaussian": {"metrics": ["gaussian.batch_calls", "gaussian.batch_share",
                             "gaussian.batch_rows", "gaussian.batch_gflop_computed",
                             "gaussian.value_calls", "gaussian.value_share"],
                 "moves": "batch: items_per_s on harness_n10, little on table2; "
                          "value: items_per_s on explain_n14"},
    "shapley": {"metrics": ["shapley.all_self_share", "shapley.truncated_self_share",
                            "shapley.sampled_self_share", "shapley.sampled_eval_ratio"],
                "moves": "items_per_s on explain_n14"},
    "coalitions": {"metrics": ["coalitions.constructed"],
                   "moves": "items_per_s on explain_n14 and harness_n10"},
}

UNITS = {
    "suite.render_share": "frac", "harness.threshold_share": "frac",
    "harness.trialgen_share": "frac", "harness.simulate_peak_mib": "MiB",
    "attacks.offsets_calls": "count", "attacks.offsets_share": "frac",
    "gaussian.batch_calls": "count", "gaussian.batch_share": "frac",
    "gaussian.batch_rows": "count", "gaussian.batch_gflop_computed": "GFLOP",
    "gaussian.value_calls": "count", "gaussian.value_share": "frac",
    "shapley.all_self_share": "frac", "shapley.truncated_self_share": "frac",
    "shapley.sampled_self_share": "frac", "shapley.sampled_eval_ratio": "ratio",
    "coalitions.constructed": "count", "trace.hooks_missing": "count",
    "trace.overhead_frac": "frac", "trace.unit_wall_s": "s",
}

# workload -> the layer whose share of traced time should be the largest
EXPECTED_DOMINANT = {
    "table2": "harness.threshold_share",
    "harness_n10": "gaussian.batch_share",
    "explain_n14": "gaussian.value_share",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.leaf_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[dict] = []
        self._next_id = 0

    def begin(self, name: str) -> dict:
        span = {"id": self._next_id, "name": name, "op": self.op,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None,
                "child_s": 0.0, "leaf_calls": 0}
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        duration = span["end"] - span["start"]
        span["self_s"] = duration - span.pop("child_s")
        if self._stack:
            self._stack[-1]["child_s"] += duration
        self.spans.append(span)

    def leaf(self, name: str, seconds: float) -> None:
        self.leaf_s[name] += seconds
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1]["child_s"] += seconds
            self._stack[-1]["leaf_calls"] += 1

    def self_s(self, name: str) -> float:
        return sum(s["self_s"] for s in self.spans if s["name"] == name)


class TimedValueFunction:
    """Value function that records each call as a ``gaussian.value`` leaf."""

    def __init__(self, vf, tracer: Tracer):
        self._vf = vf
        self._tracer = tracer
        self.n = vf.n

    def __call__(self, s, x):
        t0 = time.perf_counter()
        out = self._vf(s, x)
        self._tracer.leaf("gaussian.value", time.perf_counter() - t0)
        return out


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)
    return wrapper


def _simulate(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        span = tracer.begin("harness.simulate_scores")
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.end(span)
            tracer.counts["harness.simulate_peak_bytes"] = max(
                tracer.counts["harness.simulate_peak_bytes"], peak)
    return wrapper


def _batch(tracer: Tracer, fn):
    def wrapper(self, s, xs, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(self, s, xs, *args, **kwargs)
        tracer.leaf("gaussian.batch", time.perf_counter() - t0)
        rows = len(xs)
        k = len(s)
        tracer.counts["gaussian.batch_rows"] += rows
        tracer.counts["gaussian.batch_flop"] += k * k * rows
        return out
    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        tracer.leaf(name, time.perf_counter() - t0)
        return out
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# (module, attribute path, wrapper factory); a function is replaced under
# every name a shaploc module imported it as.
HOOKS = (
    ("shaploc.cli", "main", lambda t, f: _spanned(t, "cli.main", f)),
    ("shaploc.suite", "run_suite", lambda t, f: _spanned(t, "suite.run_suite", f)),
    ("shaploc.suite", "render_rows", lambda t, f: _spanned(t, "suite.render_rows", f)),
    ("shaploc.harness", "run_experiment",
     lambda t, f: _spanned(t, "harness.run_experiment", f)),
    ("shaploc.harness", "simulate_scores", _simulate),
    ("shaploc.attacks", "offsets_from_uniforms",
     lambda t, f: _leaf(t, "attacks.offsets", f)),
    ("shaploc.gaussian", "GaussianModel.marginal_log_density_batch", _batch),
    ("shaploc.shapley", "all_shapley", lambda t, f: _spanned(t, "shapley.all", f)),
    ("shaploc.shapley", "truncated_shapley",
     lambda t, f: _spanned(t, "shapley.truncated", f)),
    ("shaploc.shapley", "sampled_shapley",
     lambda t, f: _spanned(t, "shapley.sampled", f)),
    ("shaploc.coalitions", "Coalition.__post_init__",
     lambda t, f: _counted(t, "coalitions.constructed", f)),
)


class Hooks:
    """Context manager that installs the hooks of ``specs`` and removes them."""

    def __init__(self, tracer: Tracer, specs=HOOKS):
        self._tracer = tracer
        self._specs = specs
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for module_name, path, factory in self._specs:
            target = self._resolve(module_name, path)
            if target is None:
                label = f"{module_name}.{path}"
                if label not in self._tracer.missing:
                    self._tracer.missing.append(label)
                continue
            owner, attr, original = target
            wrapper = factory(self._tracer, original)
            for holder in self._holders(owner, attr, original):
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    @staticmethod
    def _resolve(module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original

    @staticmethod
    def _holders(owner, attr: str, original):
        if isinstance(owner, type):
            return [owner]
        return [m for name, m in list(sys.modules.items())
                if (name == "shaploc" or name.startswith("shaploc."))
                and getattr(m, attr, None) is original]


def layer_metrics(tracer: Tracer, wall_s: float, units: int,
                  sampled_permutations: int) -> dict[str, float]:
    """Per-layer metrics over ``units`` traced units taking ``wall_s`` in all.

    Times are shares of the traced wall time; counts are per unit.
    """
    def share(seconds: float) -> float:
        return seconds / wall_s

    def per_unit(count: float):
        value = count / units
        return int(value) if float(value).is_integer() else value

    c = tracer.counts
    sampled_spans = [s for s in tracer.spans if s["name"] == "shapley.sampled"]
    sampled_calls = sum(s["leaf_calls"] for s in sampled_spans)
    return {
        "suite.render_share": share(tracer.self_s("suite.render_rows")),
        "harness.threshold_share": share(tracer.self_s("harness.run_experiment")),
        "harness.trialgen_share": share(tracer.self_s("harness.simulate_scores")),
        "harness.simulate_peak_mib": c["harness.simulate_peak_bytes"] / 2**20,
        "attacks.offsets_calls": per_unit(c["attacks.offsets.calls"]),
        "attacks.offsets_share": share(tracer.leaf_s["attacks.offsets"]),
        "gaussian.batch_calls": per_unit(c["gaussian.batch.calls"]),
        "gaussian.batch_share": share(tracer.leaf_s["gaussian.batch"]),
        "gaussian.batch_rows": per_unit(c["gaussian.batch_rows"]),
        "gaussian.batch_gflop_computed": c["gaussian.batch_flop"] / units / 1e9,
        "gaussian.value_calls": per_unit(c["gaussian.value.calls"]),
        "gaussian.value_share": share(tracer.leaf_s["gaussian.value"]),
        "shapley.all_self_share": share(tracer.self_s("shapley.all")),
        "shapley.truncated_self_share": share(tracer.self_s("shapley.truncated")),
        "shapley.sampled_self_share": share(tracer.self_s("shapley.sampled")),
        "shapley.sampled_eval_ratio": (
            sampled_calls / (2 * sampled_permutations * len(sampled_spans))
            if sampled_spans else 0.0),
        "coalitions.constructed": per_unit(c["coalitions.constructed"]),
        "trace.hooks_missing": len(tracer.missing),
    }


def dominance(workload: str, metrics: dict[str, float]) -> dict:
    """Whether the layer expected to dominate ``workload`` really does."""
    top = max((m for m in UNITS if m.endswith("_share")), key=lambda m: metrics[m])
    expected = EXPECTED_DOMINANT[workload]
    return {"expected": expected, "observed": top, "ok": top == expected}
