"""Per-layer tracing of reachmap from outside the package.

The tracer replaces the public functions of each layer module with timing
wrappers, everywhere the package binds them (a ``from .domain import
load_dataset_csv`` in ``reachmap.cli`` is a second binding of the same
function and is replaced too), and restores the originals afterwards.

Every wrapped call is a span.  Spans are aggregated as they close: per
function the tracer keeps the call count, the inclusive seconds and the self
seconds (the span's duration minus the part its child spans cover).  No
per-call record is kept, so a per-point ``predict`` costs two clock reads and
a few additions, not a span object.

Per-point helpers, called once per sample, grid cell or ensemble member, are
left unwrapped to keep the overhead low; their time counts as self time of
the function that calls them.  The split-search internals are private and
out of scope.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "synth", "domain", "causal_tree", "baselines", "evaluation", "mapgen", "model_io")

# called once per sample, grid cell or tree; covered by their callers' spans
PER_POINT = frozenset(
    {
        "features_from_xyz",
        "sample_workspace_point",
        "baseline_time",
        "true_tau",
        "predict_tau",
        "predict_base",
        "predict_t_learner",
    }
)

# model classes whose ``predict`` method is counted as the layer's point prediction
PREDICT_CLASSES = {
    "causal_tree": ("CausalTree", "CausalForest"),
    "baselines": ("TLearner",),
}

_T_LEARNER_KIND = {"CartSpec": "t_cart", "ForestSpec": "t_forest", "KnnSpec": "t_knn"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counters taken from a call's arguments or result: key -> hook(args, kwargs, out, dt)
_HOOKS = {
    "synth.generate_dataset": lambda a, k, out, dt: {"synth.samples": len(out[0])},
    "domain.save_dataset_csv": lambda a, k, out, dt: {
        "domain.csv_write_rows": len(_arg(a, k, 0, "d"))
    },
    "domain.load_dataset_csv": lambda a, k, out, dt: {"domain.csv_read_rows": len(out)},
    "causal_tree.fit_causal_tree": lambda a, k, out, dt: {"causal_tree.leaves": out.n_leaves()},
    "baselines.fit_t_learner": lambda a, k, out, dt: {
        f"baselines.{_T_LEARNER_KIND[type(_arg(a, k, 1, 'spec')).__name__]}.fit_s": dt
    },
    "mapgen.build_grid": lambda a, k, out, dt: {"mapgen.cells": len(out)},
    "mapgen.render_svg_slice": lambda a, k, out, dt: {"mapgen.svg_bytes": len(out)},
    "model_io.load_model": lambda a, k, out, dt: {
        "model_io.load_bytes": os.path.getsize(_arg(a, k, 0, "path"))
    },
    "model_io.save_model": lambda a, k, out, dt: {
        "model_io.save_bytes": os.path.getsize(_arg(a, k, 1, "path"))
    },
}

# per-layer metric name -> (table, key) in the tracer's aggregates
_SOURCES = {
    "synth.generate_s": ("incl", "synth.generate_dataset"),
    "synth.samples": ("work", "synth.samples"),
    "domain.csv_write_s": ("incl", "domain.save_dataset_csv"),
    "domain.csv_write_rows": ("work", "domain.csv_write_rows"),
    "domain.csv_read_s": ("incl", "domain.load_dataset_csv"),
    "domain.csv_read_rows": ("work", "domain.csv_read_rows"),
    "domain.honest_split_s": ("incl", "domain.stratified_honest_split"),
    "causal_tree.fit_s": ("incl", "causal_tree.fit_causal_tree"),
    "causal_tree.fit_calls": ("calls", "causal_tree.fit_causal_tree"),
    "causal_tree.forest_fit_s": ("incl", "causal_tree.fit_causal_forest"),
    "causal_tree.leaves": ("work", "causal_tree.leaves"),
    "causal_tree.predict_s": ("incl", "causal_tree.predict"),
    "causal_tree.predict_calls": ("calls", "causal_tree.predict"),
    "baselines.t_forest.fit_s": ("work", "baselines.t_forest.fit_s"),
    "baselines.t_cart.fit_s": ("work", "baselines.t_cart.fit_s"),
    "baselines.t_knn.fit_s": ("work", "baselines.t_knn.fit_s"),
    "baselines.predict_s": ("incl", "baselines.predict"),
    "baselines.predict_calls": ("calls", "baselines.predict"),
    "evaluation.run_benchmark_s": ("incl", "evaluation.run_benchmark"),
    "mapgen.build_grid_s": ("incl", "mapgen.build_grid"),
    "mapgen.difficulty_map_self_s": ("self", "mapgen.difficulty_map"),
    "mapgen.cells": ("work", "mapgen.cells"),
    "mapgen.svg_s": ("incl", "mapgen.render_svg_slice"),
    "mapgen.svg_bytes": ("work", "mapgen.svg_bytes"),
    "mapgen.csv_s": ("incl", "mapgen.export_map_csv"),
    "model_io.load_s": ("incl", "model_io.load_model"),
    "model_io.load_bytes": ("work", "model_io.load_bytes"),
    "model_io.save_s": ("incl", "model_io.save_model"),
    "model_io.save_bytes": ("work", "model_io.save_bytes"),
}

#: every metric :meth:`Tracer.layer_metrics` returns
METRIC_NAMES = tuple(_SOURCES) + tuple(f"{layer}.self_s" for layer in LAYERS)


class Tracer:
    """Aggregated spans of one traced session; use as a context manager."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stack = self._stack
        hook = _HOOKS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([0.0])
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()[0]
                if stack:
                    stack[-1][0] += dt
                self.calls[key] += 1
                self.incl[key] += dt
                self.self_s[key] += dt - child
            if hook is not None:
                for name, value in hook(args, kwargs, out, dt).items():
                    self.work[name] += value
            return out

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        modules = {layer: sys.modules[f"reachmap.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in PER_POINT
                ):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
            for cls_name in PREDICT_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch(cls, "predict", self._wrap(f"{layer}.predict", cls.__dict__["predict"]))
        package = [m for n, m in list(sys.modules.items()) if n == "reachmap" or n.startswith("reachmap.")]
        for mod in package:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, name, wrapped[value])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def layer_metrics(self) -> dict[str, float]:
        tables = {"incl": self.incl, "calls": self.calls, "self": self.self_s, "work": self.work}
        out = {name: float(tables[table].get(key, 0)) for name, (table, key) in _SOURCES.items()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((v for k, v in self.self_s.items() if k.startswith(layer + ".")), 0.0)
        return out

    def functions(self) -> dict[str, dict]:
        """Per wrapped function: calls, inclusive and self seconds."""
        return {
            key: {"calls": self.calls[key], "incl_s": self.incl[key], "self_s": self.self_s[key]}
            for key in sorted(self.calls)
        }
