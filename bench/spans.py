"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]``: wall-clock bounds from
``time.perf_counter`` and the index of the enclosing span (-1 at the top).
Spans come from two places, both in the benchmark's own files: ``span``
blocks around the calls the benchmark makes into each layer, and wrappers
installed by ``patched`` on the module attributes through which the library
looks up its own functions (for example ``negflow.sse.gf_phase``, which the
loop calls by that name).  Nothing inside the library is edited.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: ``span`` costs one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Records spans in memory; summaries derive totals and self times."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, func, name: str, inject: dict | None = None):
        """``func`` inside a span; ``inject`` fills keyword arguments the caller left out."""

        def wrapped(*args, **kwargs):
            for key, value in (inject or {}).items():
                if kwargs.get(key) is None:
                    kwargs[key] = value
            with self.span(name):
                return func(*args, **kwargs)

        return wrapped

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(module, attribute, span name, inject)`` targets, then restore."""
        saved = []
        try:
            for module, attr, name, inject in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, inject))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, start: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds of ``spans[start:]``.

        Self time is a span's duration minus the durations of its direct
        children, i.e. the part of the interval no child span covers.
        """
        child_time: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans[start:]:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for index in range(start, len(self.spans)):
            name, t0, t1, _ = self.spans[index]
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child_time[index]
        return out
