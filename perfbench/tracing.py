"""In-memory spans and counters recorded around calls into netwitness.

Spans are kept in a list and summarized when the run ends; nothing inside
the package is patched. A disabled tracer records nothing, so the untraced
run pays one attribute check per call site.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, parent index, start, end]
        self.values = defaultdict(float)
        self.maxima = {}
        self._stack = []

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None,
                           time.perf_counter(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    def add(self, name: str, value: float) -> None:
        """Accumulate a counter or a derived quantity."""
        if self.enabled:
            self.values[name] += value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen, for peaks such as memory."""
        if self.enabled:
            self.maxima[name] = max(value, self.maxima.get(name, value))

    def last_duration(self, name: str) -> float:
        for span in reversed(self.spans):
            if span[0] == name:
                return span[3] - span[2]
        raise KeyError(name)

    def merge(self, spans) -> None:
        """Attach spans reported by a child process under the current span.

        Child and parent share the system-wide monotonic clock on Linux, so
        the start and end stamps stay comparable.
        """
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for name, par, start, end in spans:
            self.spans.append([name, parent if par is None else base + par, start, end])

    def totals(self) -> dict:
        """Summed duration ``<name>_s`` and call count ``<name>_calls`` per span name."""
        out = defaultdict(float)
        for name, _, start, end in self.spans:
            out[f"{name}_s"] += end - start
            out[f"{name}_calls"] += 1
        for name, value in self.values.items():
            out[name] += value
        out.update(self.maxima)
        return dict(out)
