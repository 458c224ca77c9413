"""In-memory span tracing for the benchmark's traced runs.

A traced run calls the same entry points as an untraced one.  The tracer
replaces the package's functions at the module bindings the package itself
calls (``centralized.solve_lp``, ``linksched.simplex.maximize``, each
module's ``sinr_at_receiver`` ...) with wrappers that record one span per
call: name, start, end, parent span and instance id.  ``sinr_at_receiver``
gets no span of its own (it runs tens of thousands of times per instance);
its wrapper only counts the call against the innermost enclosing span that
``sinr_spans`` names.  Spans stay in memory until the run ends.

The self time of a span is its duration minus the durations of its direct
children, so the self times of every span under one root add up to the
root's duration.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "attrs", "child_s")

    def __init__(self, name: str, parent: int | None, instance: int | None):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span recorder; ``patch`` installs wrappers, ``restore`` removes them.

    ``sinr_spans`` maps a span name to the label its ``sinr_at_receiver``
    calls are counted under; calls outside any such span count as "other".
    """

    def __init__(self, sinr_spans: dict[str, str]):
        self.spans: list[Span] = []
        self.sinr_calls: Counter = Counter()
        self.instance: int | None = None
        self._stack: list[int] = []
        self._sinr_label = ["other"]
        self._sinr_spans = sinr_spans
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.instance)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        label = self._sinr_spans.get(name)
        if label is not None:
            self._sinr_label.append(label)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        if self._sinr_spans.get(span.name) is not None:
            self._sinr_label.pop()

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        """Wrap ``module.attr`` in a span named ``name``.

        ``observe(span, args, kwargs, result)`` runs after the span closes
        and may store numbers in ``span.attrs``.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def count_sinr(self, module) -> None:
        """Count every ``module.sinr_at_receiver`` call, without a span."""
        original = module.sinr_at_receiver
        calls = self.sinr_calls
        label = self._sinr_label

        def counted(*args, **kwargs):
            calls[label[-1]] += 1
            return original(*args, **kwargs)

        module.sinr_at_receiver = counted
        self._patches.append((module, "sinr_at_receiver", original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take_sinr_calls(self) -> dict[str, int]:
        """Counts since the last call, then reset."""
        out = dict(self.sinr_calls)
        self.sinr_calls.clear()
        return out

    def self_time_by_name(self, instances: int) -> dict[str, float]:
        """Summed self time per span name, over instance ids below ``instances``."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.instance is not None and span.instance < instances:
                totals[span.name] += span.self_s
        return dict(totals)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """One JSON object per span, in start order; times relative to the first."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": s.name,
                    "parent": s.parent,
                    "instance": s.instance,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "self_s": s.self_s,
                }
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record, sort_keys=True) + "\n")
