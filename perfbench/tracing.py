"""Span recording around the public entry points of the repository's layers.

The benchmark does not instrument ``src/``.  It wraps methods and module
functions from the outside (:meth:`Tracer.wrap`) and records one span per
call: name, start, end, the op it belongs to, and the enclosing span on
the same thread.  Spans stay in memory until the run reports.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "Ops", "covered", "self_time", "per_op_totals"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: int
    parent: Optional[int]  # index into Tracer.spans, same thread only

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; ``op`` tags every span with the
    benchmark op that was running when it started (ops run one at a time,
    so spans from helper threads, such as the micro-batch scheduler's, are
    attributed correctly)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self.op, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` (a class or module attribute of its own)
        to ``replacement`` until :meth:`restore`."""
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a recording wrapper until :meth:`restore`."""
        original = vars(owner)[attribute]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.record(name, original, *args, **kwargs)

        self.patch(owner, attribute, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def covered(interval: Tuple[float, float], others: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if b > lo and a < hi)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(spans: Sequence[Span], parent: str, children: Sequence[str]) -> Dict[int, float]:
    """Per op: time inside ``parent`` spans not covered by ``children`` spans.

    Children are matched by op and by interval, not by the same-thread
    parent link, so work a parent hands to another thread (the gateway's
    scheduler runs ``ForecastService.submit`` on its own thread) is still
    subtracted.
    """
    kids: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.name in children:
            kids.setdefault(span.op, []).append((span.start, span.end))
    result: Dict[int, float] = {}
    for span in spans:
        if span.name == parent:
            own = span.duration - covered((span.start, span.end), kids.get(span.op, ()))
            result[span.op] = result.get(span.op, 0.0) + own
    return result


def per_op_totals(spans: Sequence[Span], name: str) -> Dict[int, float]:
    """Summed duration of ``name`` spans per op."""
    totals: Dict[int, float] = {}
    for span in spans:
        if span.name == name:
            totals[span.op] = totals.get(span.op, 0.0) + span.duration
    return totals


class Ops:
    """Times the ops of one closed loop and counts their outcomes.

    With ``install`` (a function that wraps entry points on a tracer), every
    other op runs traced, so traced and untraced ops interleave under the
    same host conditions and their difference is the tracing overhead.
    Wrappers are installed around the op, outside its timed interval.
    """

    def __init__(self, install: Optional[Callable[[Tracer], None]] = None) -> None:
        self.tracer = Tracer() if install is not None else None
        self._install = install
        self.records: List[Tuple[int, float, bool]] = []  # (op, seconds, traced)
        self.ok = 0
        self.attempted = 0

    def call(self, fn, *args):
        """Run and time one op; an exception propagates after it is counted."""
        op = self.attempted
        self.attempted += 1
        traced = self.tracer is not None and op % 2 == 1
        if traced:
            self.tracer.op = op
            self._install(self.tracer)
        try:
            start = time.perf_counter()
            result = fn(*args)
            self.records.append((op, time.perf_counter() - start, traced))
        finally:
            if traced:
                self.tracer.restore()
        return result

    def latencies(self, traced: Optional[bool] = None) -> List[float]:
        """Op latencies in seconds: all, or only the (un)traced ones."""
        return [s for _, s, t in self.records if traced is None or t == traced]

    def traced_ops(self) -> List[int]:
        return [op for op, _, t in self.records if t]
