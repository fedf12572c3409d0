"""Span recording by wrapping public names in the namespaces that call them.

Nothing inside catsim is edited: ``Tracer.wrap(module, "name", span)``
replaces ``module.name`` by a wrapper that records a span while the
tracer is installed, so a call that goes through that namespace (for
example ``catsim.protocol.evolve_quench``) is timed where the caller
looks the name up.  Spans live in memory; ``take`` hands back those of
one operation and starts the next, whose spans share the next id.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

from stats import self_times


class Tracer:
    def __init__(self):
        # span = [span_id, name, start, end, parent_id, op_id]; span ids
        # index self.spans, which holds the spans of operation op_id
        self.spans: list[list] = []
        self.op_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace ``owner.attr`` as span ``name`` once installed.

        ``count(args, kwargs, result)`` may return counter increments that
        are measured at the same boundary.
        """
        original = getattr(owner, attr)
        self._patches.append(
            (owner, attr, original, self._traced(original, name, count)))

    def wrap_each(self, owner, attr: str, name_of) -> None:
        """Trace every function of the tuple ``owner.attr``."""
        original = getattr(owner, attr)
        wrapped = tuple(self._traced(fn, name_of(fn), None) for fn in original)
        self._patches.append((owner, attr, original, wrapped))

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [len(self.spans), name, 0.0, 0.0, stack[-1] if stack else None,
                self.op_id]
        self.spans.append(span)
        stack.append(span[0])
        span[2] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def _traced(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[key] += value
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def count_warning(self, *args, **kwargs) -> None:
        """A ``warnings.showwarning`` replacement that counts each warning
        against the layer of the innermost open span."""
        layer = self.spans[self._stack[-1]][1].split(".")[0] \
            if self._stack else "none"
        self.counters[f"warnings.{layer}"] += 1

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Spans and counters of the current operation; then start the
        next operation."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        self.op_id += 1
        return spans, counters


def summarise(spans: list[list]) -> tuple[dict[str, list], dict[str, set]]:
    """Per span name: [calls, self seconds, total seconds], and the names
    of its parent spans (None for a root)."""
    own = self_times(spans)
    per_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    parents: dict[str, set] = defaultdict(set)
    for span_id, name, start, end, parent, *_ in spans:
        totals = per_name[name]
        totals[0] += 1
        totals[1] += own[span_id]
        totals[2] += end - start
        parents[name].add(spans[parent][1] if parent is not None else None)
    return dict(per_name), dict(parents)
