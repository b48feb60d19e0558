"""Spans and counters around calls into the program's layers.

For a traced run, every public function of each layer module is replaced,
in every ``fglift`` namespace that holds it, by a wrapper that records a
span. Calls that one module makes into another (``fglift.colour.odeed``,
``fglift.cli.build_hierarchy``, ``fglift.io.build_graph``) therefore get
spans too, while calls to private helpers count towards their caller. A
layer's self time is the time of its spans minus the time covered by their
child spans. Nothing in the program changes; ``uninstall`` restores it.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "model", "generate", "metric", "hierarchy", "colour", "inference", "bounds")


class Tracer:
    """Records spans only while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def _count(self, key: str, args, result) -> None:
        """Counters that need a call's arguments or result."""
        if key.startswith("io.write_"):
            self.counts["io.bytes_written"] += os.path.getsize(args[1])
        elif key.startswith("io.read_"):
            self.counts["io.bytes_read"] += os.path.getsize(args[0])
        elif key == "metric.distance_matrix":
            sizes = Counter(result.class_ids.tolist()).values()
            self.counts["metric.pairs"] += sum(n * (n - 1) // 2 for n in sizes)
        elif key == "inference.max_query_deviation":
            self.counts["inference.scan_queries"] += len(result.deviations)
        elif key == "inference.star_marginal":
            self.counts["inference.lifted_ops"] += result.ops

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        counted = key.startswith(("io.write_", "io.read_")) or key in (
            "metric.distance_matrix",
            "inference.max_query_deviation",
            "inference.star_marginal",
        )
        children = self._children
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = children.pop()
                self.self_s[layer] += took - inner
                self.incl_s[key] += took
                self.calls[key] += 1
                if children:
                    children[-1] += took
            if counted:
                self._count(key, args, result)
            return result

        return span

    def install(self, package: str = "fglift") -> None:
        wrapper_of = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapper_of[obj] = self._wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapper_of:
                    setattr(mod, name, wrapper_of[obj])
                    self._undo.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._undo):
            setattr(mod, name, obj)
        self._undo.clear()
