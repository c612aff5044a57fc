"""Traced-run tooling: an in-memory span recorder and cProfile grouping.

Spans are recorded by the benchmark's own code around the public calls it
makes into each layer (``workloads.build``, ``sim.construct``, ``sim.run``,
``analysis.metrics`` ...).  Nothing inside the simulator is touched: the
profiler is attached from outside, only around ``MulticoreSimulator.run``.
"""

from __future__ import annotations

import contextlib
import pstats
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One recorded interval; ``cell`` ties the spans of one cell together."""

    id: int
    name: str
    cell: str | None
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; the benchmark writes them out at exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, cell: str | None = None):
        span = Span(
            id=len(self.spans),
            name=name,
            cell=cell,
            parent=self._stack[-1] if self._stack else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullRecorder:
    """Stands in for :class:`SpanRecorder` when tracing is off."""

    @contextlib.contextmanager
    def span(self, name: str, cell: str | None = None):
        yield None


NULL_RECORDER = NullRecorder()


def coverage_error(recorder: SpanRecorder, root: Span, region_s: float) -> float:
    """``root self time + sum of its children's durations - region``.

    Zero (to timer resolution) when the children lie inside the root
    without overlapping and the root brackets exactly the timed region.
    """
    children = sum(c.duration for c in recorder.children(root))
    return recorder.self_time(root) + children - region_s


@contextlib.contextmanager
def profiling(profiler):
    """Enable a ``cProfile.Profile`` for the ``with`` body (no-op for None)."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def module_key(filename: str) -> str:
    """``.../repro/core/lsq.py`` -> ``core.lsq``;
    ``.../repro/frontend/branch/tage.py`` -> ``frontend.tage``;
    anything outside the package (builtins, stdlib) -> ``other``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return "other"
    parts = path[at + len(marker):-3].split("/")
    if len(parts) == 1:
        return parts[0]
    return f"{parts[0]}.{parts[-1]}"


def self_shares(profiler) -> dict[str, float]:
    """Profiled self time grouped by :func:`module_key`, as shares of the
    total (builtins and stdlib land in ``other``)."""
    totals: dict[str, float] = {}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        key = module_key(filename)
        totals[key] = totals.get(key, 0.0) + row[2]
    grand = sum(totals.values())
    return {k: v / grand for k, v in totals.items()} if grand else {}
