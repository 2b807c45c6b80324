"""In-memory spans around the public functions of the tropimeas modules.

A traced run replaces each public function of the modules in MODULES, at
every module-level name bound to it and in every module-level list of
tuples that holds it (the suite's CRITERIA and EXTRAS), with a wrapper
that records one span: name, start, end and the enclosing span.  Calls
that import a function inside a function body read the module attribute
at call time, so they see the wrapper too.  Nothing in the program's
files changes, and `uninstall` puts every original back.

`rmax` is not wrapped: its functions run once per scalar, so a span
would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("kernels", "pseudometric", "measure", "metric", "sampling",
           "geometry", "bridge", "jsonio", "cli", "suite")


class Tracer:
    """Records spans in parallel arrays; index i is span i."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, counter=None):
        """Return fn wrapped in a span called `name`.

        `counter(*args, **kwargs)`, when given, returns a work count that
        is added to self.counts[name] on every call.
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock, counts = self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if counter is not None:
                counts[name] += counter(*args, **kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, counters=None):
        """Wrap the public functions of tropimeas.<MODULES> everywhere
        they are bound.  `counters` maps span names to work counters."""
        counters = counters or {}
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"tropimeas.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    span = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(span, obj, counters.get(span))
        loaded = [m for name, m in sys.modules.items()
                  if name == "tropimeas" or name.startswith("tropimeas.")]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        if isinstance(item, tuple) and any(id(x) in wrapped for x in item):
                            self._undo.append((_setitem, obj, i, item))
                            obj[i] = tuple(wrapped.get(id(x), x) for x in item)

    def uninstall(self):
        while self._undo:
            put, container, key, original = self._undo.pop()
            put(container, key, original)

    def __len__(self):
        return len(self.names)

    def summarize(self):
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap in a single thread.
        """
        n = len(self.names)
        child = [0.0] * n
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def covered_s(self):
        """Seconds covered by top-level spans (they run one after another)."""
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.names)) if self.parents[i] < 0)

    def nested_per_call(self, outer, inner):
        """Spans named `inner` beneath spans named `outer`, per `outer` call."""
        calls = self.names.count(outer)
        if not calls:
            return 0.0
        hits = 0
        for i, name in enumerate(self.names):
            if name != inner:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != outer:
                p = self.parents[p]
            hits += p >= 0
        return hits / calls

    def write_tsv(self, path):
        """Write every span as: index, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]!r}\t{self.ends[i]!r}\n")


def _setitem(container, key, value):
    container[key] = value
