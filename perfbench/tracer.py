"""Span tracing of discflex from outside its modules.

The tracer replaces public functions at the module attribute where callers
look them up (``discflex.nsga2.fast_nondominated_sort`` is looked up as a
module global by ``nsga2.optimize``; ``discflex.explorer.train`` is the name
the study runner calls), records one span per call, and restores the
originals on exit.  Nothing under ``src/`` changes.

Spans are kept in memory as ``(name, start, end, parent_index)`` tuples and
are written out only when the benchmark ends.  A lookup site that no longer
exists (a function renamed or removed by a refactor) is skipped, and every
metric fed by a missing site is reported as unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional, Sequence


def nrows(value) -> int:
    """Row count of a matrix-like argument, 0 when it has none."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    try:
        return len(value)
    except TypeError:
        return 0


# A counter hook gets (counts, args, result) after a call returns.
CountHook = Callable[[dict, tuple, object], None]


class Site:
    """One lookup site: ``module.attr`` is replaced by a span-recording wrapper."""

    def __init__(self, module: str, attr: str, span: str, count: Optional[CountHook] = None):
        self.module = module
        self.attr = attr
        self.span = span
        self.count = count

    @property
    def path(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """Installs wrappers at lookup sites and collects spans and counters."""

    def __init__(self, sites: Sequence[Site]):
        self.sites = list(sites)
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for site in self.sites:
            try:
                module = importlib.import_module(site.module)
                original = getattr(module, site.attr)
            except (ImportError, AttributeError):
                self.missing.append(site.path)
                continue
            self._saved.append((module, site.attr, original))
            setattr(module, site.attr, self._wrap(site, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, site: Site, fn: Callable) -> Callable:
        name, count = site.span, site.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def span(self, name: str) -> "_Span":
        """Context manager recording a span around the benchmark's own code."""
        return _Span(self, name)

    def measured(self, span_name: str) -> bool:
        """Whether every site feeding ``span_name`` was installed."""
        return all(s.path not in self.missing for s in self.sites if s.span == span_name)

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        self.parent = t._stack[-1] if t._stack else -1
        t.spans.append((self.name, 0.0, 0.0, self.parent))
        t._stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = (self.name, self.start, end, self.parent)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def has_ancestor(spans: Sequence[tuple[str, float, float, int]], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def span_totals(spans: Sequence[tuple[str, float, float, int]]) -> dict[str, tuple[float, int]]:
    """Per span name: (seconds, calls), counting only outermost spans of a name."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _) in enumerate(spans):
        if has_ancestor(spans, i, name):
            continue
        out[name][0] += end - start
        out[name][1] += 1
    return {name: (s, n) for name, (s, n) in out.items()}
