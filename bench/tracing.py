"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id). Spans are opened by the
benchmark's own code around calls into the package's public functions;
nothing inside the package is instrumented. Spans named ``<layer>.<func>``
belong to a package layer; other names (``run``, ``replay``, ``rebalance``)
structure the trace. Spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and counts exceptions per layer.

    An exception is counted once, in the layer of the innermost span it
    leaves, not again in every enclosing span it passes through.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.run = 0
        self._clock = clock
        self._stack: list[int] = []
        self._last_counted: BaseException | None = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), float("nan"), parent, self.run))
        self._stack.append(idx)
        try:
            yield
        except Exception as exc:
            if "." in name and exc is not self._last_counted:
                self.errors[name.split(".", 1)[0]] += 1
                self._last_counted = exc
            raise
        finally:
            self._stack.pop()
            self.spans[idx].end = self._clock()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        rows = [dict(asdict(s), self_s=t) for s, t in zip(self.spans, self_times(self.spans))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append(s.duration - _covered(clipped))
    return out


def totals(spans: list[Span], run: int) -> dict[str, dict[str, float]]:
    """Per span name within one run: call count, total time, total self time."""
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        if s.run != run:
            continue
        row = agg[s.name]
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return dict(agg)
