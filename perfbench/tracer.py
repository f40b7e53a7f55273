"""Span and count recorders wrapped around saddle_es at run time.

``Tracer.install`` wraps every public function of each saddle_es module, and
the public methods and ``__post_init__`` of each public class, without editing
the source.  A function is patched under every module namespace that holds it
(``experiments.run`` as well as ``es.run``), because a module that did
``from .es import run`` looks the name up in its own namespace.

Spans are aggregated in memory by call path: for each path the number of calls,
the total time and the self time (total minus the time of child spans).  Self
time is also summed per layer, so the layer self times plus whatever ran outside
any span add up to the traced wall time.  Spans are lost in forked workers, so a
traced run must run its pool serially.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

LAYERS = ("objective", "normalization", "es", "estimators", "experiments", "serialize", "cli")

# es.run takes an inlined fast path only when ``stop is target_reached``; a
# wrapper would break that identity and add a Python call per iteration.
SKIP = {("es", "target_reached")}

# es.run draws its normals in (ES_BLOCK, d) arrays, one per ES_BLOCK iterations
ES_BLOCK = 256


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_samples(counts, fn, args, kwargs, result):
    counts["estimators.sample_sets"] += 1
    counts["estimators.samples_drawn"] += int(_arg(fn, args, kwargs, "n"))


def _count_run(counts, fn, args, kwargs, result):
    iters = result.n_accepts + result.n_rejects
    d = result.final_state.m.size
    counts["es.iters"] += iters
    counts["es.accepts"] += result.n_accepts
    counts["es.normals_used"] += iters * d
    counts["es.normals_drawn"] += math.ceil(iters / ES_BLOCK) * ES_BLOCK * d


def _count_escape_tasks(counts, fn, args, kwargs, result):
    counts["experiments.tasks"] += result.trials


def _count_grid_tasks(counts, fn, args, kwargs, result):
    counts["experiments.tasks"] += len(result)


def _count_bytes(counts, fn, args, kwargs, result):
    counts["serialize.bytes"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


HOOKS = {
    "estimators.success_probability": _count_samples,
    "estimators.saddle_success_mc": _count_samples,
    "estimators.one_step_samples": _count_samples,
    "es.run": _count_run,
    "experiments.run_escape_experiment": _count_escape_tasks,
    "experiments.drift_map": _count_grid_tasks,
    "serialize.write_csv": _count_bytes,
    "serialize.write_json": _count_bytes,
}


class Tracer:
    """Aggregated spans and counts of one traced call; see the module docstring."""

    def __init__(self):
        self.nodes = {}                       # call path -> [calls, total_s, self_s]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.counts = defaultdict(int)
        self._stack = []                      # (path, [seconds of child spans])
        self._patches = []                    # (owner, attribute, original)

    def _wrap(self, layer, name, fn):
        stack, nodes, layer_self = self._stack, self.nodes, self.layer_self
        counts, layer_calls = self.counts, self.layer_calls
        hook = HOOKS.get(name)
        counted = not name.endswith(".__post_init__")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = (stack[-1][0] if stack else ()) + (name,)
            child = [0.0]
            stack.append((path, child))
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, fn, args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1][0] += elapsed
                node = nodes.get(path)
                if node is None:
                    node = nodes[path] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += elapsed
                node[2] += elapsed - child[0]
                layer_self[layer] += elapsed - child[0]
                if counted:
                    layer_calls[layer] += 1

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("saddle_es")
        modules = {layer: importlib.import_module(f"saddle_es.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or (layer, attr) in SKIP \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._set(ns, attr, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    def _install_class(self, layer, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(layer, name, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(layer, name, member))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total(self, suffix: tuple) -> float:
        """Summed total time of the spans whose call path ends with ``suffix``."""
        return sum(node[1] for path, node in self.nodes.items()
                   if path[-len(suffix):] == suffix)

    def to_dict(self) -> dict:
        return {"layer_self_s": self.layer_self, "layer_calls": self.layer_calls,
                "counts": dict(self.counts),
                "nodes": [[list(path), *node] for path, node in sorted(self.nodes.items())]}
