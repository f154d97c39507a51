"""In-memory spans recorded by the benchmark around calls into each layer.

The benchmark never instruments the program: it opens a span around each
public call it makes (``repro.run.execute``, ``MatchedFilterDetector.detect``,
``sift_candidates``, ...), keeps every span in memory and writes the lot out
once the run ends.  A span's *self time* is its duration minus the part of
that interval its child spans cover, so the self times of one tree sum to
the root's duration.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanRecord:
    """One closed span: ``parent`` is ``None`` for a tree root."""

    id: int
    parent: int | None
    trace: int
    run: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``enabled=False`` makes every span a no-op.

    Nesting is tracked per thread, so client threads of a closed loop each
    build their own trees.  A span opened with no active parent starts a
    new trace (one tree per stream iteration or per request).
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        # A root's id names its trace; children inherit it.
        parent, trace = stack[-1] if stack else (None, span_id)
        stack.append((span_id, trace))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = SpanRecord(
                id=span_id,
                parent=parent,
                trace=trace,
                run=self.run_id,
                name=name,
                start=start,
                end=end,
            )
            with self._lock:
                self.spans.append(record)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, [])) for s in spans
    }


def self_time_by_trace(spans: list[SpanRecord]) -> dict[int, dict[str, float]]:
    """Trace id -> span name -> summed self time within that trace."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        per_name = out.setdefault(s.trace, {})
        per_name[s.name] = per_name.get(s.name, 0.0) + own[s.id]
    return out


def tree_problems(spans: list[SpanRecord], tol: float = 1e-9) -> list[str]:
    """Violations of the span invariants; empty when the trees are sound.

    Every child lies inside its parent, and the self times of each tree
    sum to its root's duration.
    """
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.parent is None:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"span {s.id} ({s.name}) has no parent record")
        elif s.start < parent.start - tol or s.end > parent.end + tol:
            problems.append(
                f"span {s.id} ({s.name}) leaves its parent {parent.name}"
            )
        elif s.trace != parent.trace:
            problems.append(f"span {s.id} ({s.name}) changed trace")
    own = self_times(spans)
    sums: dict[int, float] = {}
    for s in spans:
        sums[s.trace] = sums.get(s.trace, 0.0) + own[s.id]
    for s in spans:
        if s.parent is None and abs(sums[s.trace] - s.duration) > 1e-6:
            problems.append(
                f"trace {s.trace}: self times sum to {sums[s.trace]:.9f} s, "
                f"root {s.name} lasted {s.duration:.9f} s"
            )
    return problems
