"""Spans and tracers: the one span model behind every timing in repro.

A :class:`Span` is one timed region — a name, trace/span/parent ids,
start and end stamps, free-form ``attrs`` and ``children`` — so a
finished root span is a tree of where the time went.  The paper's
Table 6 epoch times and a served request's latency tree are the same
kind of object.

A :class:`Tracer` opens spans two ways:

* **thread-scoped** — ``with tracer.span("epoch", epoch=3) as span:``;
  the parent is the innermost span the *current thread* has open, so
  two threads tracing at once build two separate trees.  A span opened
  with nothing open is a root and starts a new trace;
* **lifecycle** — ``begin_request`` / ``child`` / ``attach`` / ``end``
  / ``finish`` take the parent explicitly, so a request span can open on
  a producer thread and close on whichever worker drained it.  These
  are deliberately not context managers and never touch the
  thread-local stack: the request's queue entry carries its span.

Every stamp comes from the tracer's ``now()``: ``time.perf_counter`` by
default, or the ``now`` of an injected clock (a
:class:`repro.serve.clock.Clock`), so under a
:class:`~repro.serve.clock.VirtualClock` span trees are exactly
reproducible.  Completed roots accumulate in ``completed`` — every one
on the process-wide tracer that :func:`trace` records into, a
``max_traces`` ring on a serving tracer; :meth:`Tracer.mark` /
:meth:`Tracer.since` collect the roots completed during one run.

Lexically scoped spans (``tracer.span`` / ``stages.stage``) must be
opened with ``with``; lint rule RA112 enforces this in ``repro.serve``
and ``repro.matching``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = ["Span", "Tracer", "TraceSampler", "BatchStages", "trace",
           "default_tracer", "aggregate_spans"]


class Span:
    """One timed region; forms a tree through ``children``."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start",
                 "end", "attrs", "children")

    def __init__(self, name: str, start: float,
                 trace_id: str | None = None, span_id: str | None = None,
                 parent_id: str | None = None, attrs: dict | None = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attrs = attrs if attrs is not None else {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Clock seconds from start to end (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        """Duration not attributed to any child span."""
        return max(self.duration - sum(c.duration for c in self.children),
                   0.0)

    def walk(self, depth: int = 0, path: str = ""):
        """Yield ``(span, depth, path)`` depth-first, parents before
        children; ``path`` is slash-joined ancestor names."""
        here = f"{path}/{self.name}" if path else self.name
        yield self, depth, here
        for child in self.children:
            yield from child.walk(depth + 1, here)

    def find(self, name: str) -> Span | None:
        """First span named ``name`` in this subtree (or None)."""
        for span, _, _ in self.walk():
            if span.name == name:
                return span
        return None

    def stage_names(self) -> list[str]:
        """Names of the direct children, in recorded order."""
        return [child.name for child in self.children]

    def as_dict(self) -> dict:
        """Flat JSON-friendly view of this span (no children)."""
        payload = {"name": self.name, "trace_id": self.trace_id,
                   "span_id": self.span_id, "start": self.start,
                   "end": self.end, "seconds": self.duration,
                   "exclusive": self.exclusive}
        if self.parent_id is not None:
            payload["parent_span_id"] = self.parent_id
        payload.update(self.attrs)
        return payload

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"duration={self.duration:.6f}s, "
                f"children={len(self.children)})")


class TraceSampler:
    """Deterministic head sampling: keep one request in every ``1/rate``.

    Keyed on the request's monotonically increasing sequence number, so
    the same workload samples the same requests on every run — the
    property the replay-determinism tests (and exemplar stability)
    depend on.  ``rate >= 1`` keeps everything, ``rate <= 0`` nothing.
    """

    __slots__ = ("rate", "_stride")

    def __init__(self, rate: float = 1.0):
        if rate > 1.0 or rate != rate:  # NaN guard
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self._stride = 0 if rate <= 0.0 else max(int(round(1.0 / rate)), 1)

    def sampled(self, sequence: int) -> bool:
        """Whether the request with this sequence number is traced."""
        if self._stride == 0:
            return False
        return sequence % self._stride == 0


class Tracer:
    """Allocates span ids, stamps spans on one clock, keeps finished roots.

    ``clock`` is anything with ``now() -> float`` (a
    :class:`repro.serve.clock.Clock`); without one the tracer stamps
    with ``time.perf_counter``.  ``max_traces`` bounds ``completed`` to
    a ring (None keeps every root); ``sample_rate`` drives
    :meth:`sampled`.
    """

    def __init__(self, clock=None, max_traces: int | None = None,
                 sample_rate: float = 1.0):
        if max_traces is not None and max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.now = time.perf_counter if clock is None else clock.now
        self.sampler = TraceSampler(sample_rate)
        self.completed: list[Span] | deque[Span] = (
            [] if max_traces is None else deque(maxlen=max_traces))
        self._finished = 0  # roots ever completed; what marks count
        self._traces = itertools.count()
        self._spans = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def sampled(self, sequence: int) -> bool:
        """Deterministic head-sampling decision for a request number."""
        return self.sampler.sampled(sequence)

    def _root(self, name: str, start: float, attrs: dict) -> Span:
        with self._lock:
            trace_id = f"trace-{next(self._traces):08x}"
            span_id = f"span-{next(self._spans):08x}"
        return Span(name, start, trace_id, span_id, None, attrs)

    def _child(self, parent: Span, name: str, start: float,
               attrs: dict) -> Span:
        with self._lock:
            span_id = f"span-{next(self._spans):08x}"
        span = Span(name, start, parent.trace_id, span_id, parent.span_id,
                    attrs)
        parent.children.append(span)
        return span

    def _complete(self, root: Span) -> None:
        with self._lock:
            self.completed.append(root)
            self._finished += 1

    # -- thread-scoped spans (must be used with ``with`` — RA112) ------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """A span over the enclosed block, nested under this thread's
        innermost open span; roots land in ``completed``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        node = (self._root(name, self.now(), attrs) if parent is None
                else self._child(parent, name, self.now(), attrs))
        stack.append(node)
        try:
            yield node
        finally:
            node.end = self.now()
            stack.pop()
            if parent is None:
                self._complete(node)

    def active_path(self) -> str:
        """Slash-joined names of this thread's open spans ('' if none)."""
        return "/".join(span.name for span in self._stack())

    # -- lifecycle (cross-thread; not context managers by design) ------------

    def begin_request(self, name: str = "serve.request",
                      start: float | None = None, **attrs) -> Span:
        """Open a new root span under a fresh trace id."""
        return self._root(name, self.now() if start is None else start,
                          attrs)

    def child(self, parent: Span, name: str, start: float | None = None,
              **attrs) -> Span:
        """Open a child span of ``parent`` (closed later via :meth:`end`)."""
        return self._child(parent, name,
                           self.now() if start is None else start, attrs)

    def end(self, span: Span, end: float | None = None, **attrs) -> Span:
        """Close a span at ``end`` (defaults to the clock's now)."""
        span.end = self.now() if end is None else end
        if attrs:
            span.attrs.update(attrs)
        return span

    def attach(self, parent: Span, name: str, start: float, end: float,
               **attrs) -> Span:
        """Add an already-timed stage (e.g. a shared batch stage) as a
        closed child of ``parent``, with its own span id."""
        span = self._child(parent, name, start, attrs)
        span.end = end
        return span

    def finish(self, root: Span, end: float | None = None,
               **attrs) -> Span:
        """Close a root span and record it in ``completed``."""
        self.end(root, end=end, **attrs)
        self._complete(root)
        return root

    # -- inspection ----------------------------------------------------------

    def mark(self) -> int:
        """Bookmark the completed roots; pass to :meth:`since`."""
        return self._finished

    def since(self, mark: int) -> list[Span]:
        """Root spans completed after ``mark`` that are still retained."""
        with self._lock:
            count = min(max(self._finished - mark, 0), len(self.completed))
            return list(itertools.islice(
                self.completed, len(self.completed) - count, None))

    def snapshot(self) -> list[Span]:
        """The completed roots as a list (oldest first)."""
        with self._lock:
            return list(self.completed)

    def slowest(self, n: int = 5) -> list[Span]:
        """The ``n`` longest completed roots, slowest first."""
        with self._lock:
            ranked = sorted(self.completed, key=lambda s: -s.duration)
        return ranked[:n]


class BatchStages:
    """Stage recorder for one drained batch of requests.

    The service creates one per traced batch and passes it down through
    the backend into the engine; each ``with stages.stage(name):`` block
    records a detached :class:`Span` on the shared clock.  After
    scoring, the service attaches a copy of every stage to each member
    request's span tree (each copy gets its own span id) — the batch
    work happened once, but causally it belongs to every request in the
    batch.
    """

    def __init__(self, now):
        self._now = now
        self.records: list[Span] = []

    @contextmanager
    def stage(self, name: str, **attrs):
        """Record one batch stage over the enclosed block."""
        span = Span(name, self._now(), attrs=attrs)
        self.records.append(span)
        try:
            yield span
        finally:
            span.end = self._now()


def aggregate_spans(roots: list[Span]) -> dict[str, dict[str, float]]:
    """Fold span trees into per-name totals.

    Returns ``{name: {count, total, exclusive, max}}`` with seconds as
    values, sorted by total descending.
    """
    stats: dict[str, dict[str, float]] = {}
    for root in roots:
        for span, _, _ in root.walk():
            entry = stats.setdefault(span.name, {
                "count": 0, "total": 0.0, "exclusive": 0.0, "max": 0.0})
            entry["count"] += 1
            entry["total"] += span.duration
            entry["exclusive"] += span.exclusive
            entry["max"] = max(entry["max"], span.duration)
    return dict(sorted(stats.items(), key=lambda kv: -kv[1]["total"]))


_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    """The process-wide tracer that :func:`trace` records into."""
    return _DEFAULT_TRACER


def trace(name: str, **attrs):
    """Open a span on the default tracer (context manager)."""
    return _DEFAULT_TRACER.span(name, **attrs)
