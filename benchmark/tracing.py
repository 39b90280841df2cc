"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces every public function of each layer module by a
recording wrapper, both as the module's attribute and wherever another
module imported it by name.  A span is (name, start, end, parent index);
spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter


class OpStats:
    """Counts, inclusive and self times per function over a range of spans."""

    def __init__(self, spans: list, lo: int, hi: int) -> None:
        covered = [0.0] * (hi - lo)
        for name, start, end, parent in spans[lo:hi]:
            if parent >= lo:
                covered[parent - lo] += end - start
        self.count: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.excl: dict[str, float] = {}
        for (name, start, end, _), child in zip(spans[lo:hi], covered):
            self.count[name] = self.count.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0.0) + (end - start)
            self.excl[name] = self.excl.get(name, 0.0) + (end - start - child)

    def _sum(self, table: dict, key: str) -> float:
        """Sum over one function ("betti.stratum_poincare") or a layer ("series")."""
        return sum((v for name, v in table.items() if name == key or name.startswith(key + ".")), 0.0)

    def calls(self, key: str) -> int:
        return int(self._sum(self.count, key))

    def self_s(self, key: str) -> float:
        return self._sum(self.excl, key)

    def call_s(self, key: str) -> float:
        """Mean inclusive time per call; 0 when the function was not called."""
        n = self.calls(key)
        return self._sum(self.incl, key) / n if n else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, layers: dict) -> None:
        """Wrap the public functions of each {layer name: module}."""
        wrappers = {}
        for layer, mod in layers.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in layers.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in self._saved:
            setattr(mod, name, obj)
        self._saved.clear()

    def stats(self, lo: int, hi: int) -> OpStats:
        return OpStats(self.spans, lo, hi)

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary, "spans": self.spans}, fh, separators=(",", ":"))
