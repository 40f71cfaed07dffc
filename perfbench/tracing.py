"""Spans and counters around calls into wignerlab, installed from outside.

``Tracer.install`` rebinds each traced function under every name that refers
to it in the loaded ``wignerlab`` modules (``wignerlab.wigner.null_space`` as
well as ``wignerlab.matrixcore.null_space``), so calls between modules are
seen too.  Spans (name, start, end, parent) stay in memory until the run
ends.  A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Target:
    """One traced function: ``module.attr`` reported as ``metric``.

    ``on_call(tracer, args, kwargs)`` may return replacement (args, kwargs);
    ``on_return(tracer, result)`` sees the result; ``peak`` records the
    tracemalloc peak of the call; ``span=False`` only runs the hooks;
    ``only_module`` rebinds the name in that module alone.
    """

    module: str
    attr: str
    metric: str
    on_call: Callable | None = None
    on_return: Callable | None = None
    peak: bool = False
    span: bool = True
    only_module: bool = False


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    peak_mb: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _main_stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- counters ---------------------------------------------------------

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def keep_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's first span belongs to the span its caller waits in
            parent = self._main_stack[-1] if self._main_stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- installation -----------------------------------------------------

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if target.on_call is not None:
                args, kwargs = target.on_call(tracer, args, kwargs)
            if not target.span:
                return original(*args, **kwargs)
            owner = target.peak and not tracemalloc.is_tracing()
            if target.peak:
                if owner:
                    tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            index = tracer.open(target.metric)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
                if target.peak:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracer.spans[index].peak_mb = peak / 2**20
                    if owner:
                        tracemalloc.stop()
            if target.on_return is not None:
                target.on_return(tracer, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self, targets: list[Target]) -> None:
        """Rebind every target; ``uninstall`` restores the originals."""
        self._local.stack = self._main_stack
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "wignerlab" or name.startswith("wignerlab."))]
        for target in targets:
            home = sys.modules[target.module]
            original = getattr(home, target.attr)
            wrapped = self._wrapper(target, original)
            for module in [home] if target.only_module else modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its children."""
        children: dict[int, list] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(index, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.end - span.start - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and the largest peak_mb."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "peak_mb": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            row["peak_mb"] = max(row["peak_mb"], span.peak_mb)
        return out

    def roots_breakdown(self) -> list[dict[str, Any]]:
        """For each root span: its name, wall time and self time per child name."""
        own = self.self_times()
        root_of: list[int] = []
        rows: dict[int, dict[str, Any]] = {}
        for index, span in enumerate(self.spans):
            root = index if span.parent < 0 else root_of[span.parent]
            root_of.append(root)
            if root == index:
                rows[index] = {"name": span.name, "wall_s": span.end - span.start,
                               "self_s": {}, "peak_mb": {}}
            row = rows[root]
            row["self_s"][span.name] = row["self_s"].get(span.name, 0.0) + own[index]
            if span.peak_mb:
                row["peak_mb"][span.name] = max(row["peak_mb"].get(span.name, 0.0), span.peak_mb)
        return [rows[k] for k in sorted(rows)]

    def write(self, path, extra: dict) -> None:
        """Write the spans and ``extra`` as gzipped JSON."""
        names = sorted({s.name for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            **extra,
            "span_names": names,
            "spans": [[code[s.name], round(s.start, 7), round(s.end, 7), s.parent,
                       round(s.peak_mb, 3)] for s in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
