"""Telemetry events: stable JSONL schema, sinks, and run bundling.

Every event is one JSON object per line::

    {"run_id": "...", "ts": 1712345678.9, "seq": 4,
     "kind": "step", "payload": {"step": 4, "loss": 0.61, ...}}

``kind`` is drawn from :data:`EVENT_KINDS`; :func:`validate_event`
checks the envelope and the per-kind required payload fields, and the
``repro telemetry`` report only needs this schema (not the code that
produced the file).

Sinks are deliberately tiny: :class:`JsonlSink` appends lines to a file,
:class:`MemorySink` collects dicts (tests), and :class:`NullSink` drops
everything — the no-op path instrumented code pays when telemetry is
disabled.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .registry import MetricsRegistry
from .tracing import Span, Tracer, default_tracer

__all__ = ["SCHEMA_VERSION", "EVENT_KINDS", "EventSink", "NullSink",
           "MemorySink", "JsonlSink", "TelemetryRun", "read_events",
           "read_events_tolerant", "validate_event", "span_payloads"]

SCHEMA_VERSION = 1

EVENT_KINDS = frozenset({
    "run_begin",    # run-level metadata (command, config)
    "run_end",      # run finished; wall seconds
    "train_begin",  # a training loop starts (phase, sizes)
    "train_end",    # a training loop finished (summary numbers)
    "step",         # one optimizer step (loss, lr, grad_norm, ...)
    "epoch_end",    # one epoch finished (train_loss, seconds, eval)
    "eval",         # an evaluation pass (f1/precision/recall)
    "span",         # one completed tracing span (flattened tree node)
    "metric",       # one registry metric snapshot
    "profile",      # op-level profiler result (per-op-kind stats)
    "checkpoint",   # a training snapshot was written (step, path)
    "recovery",     # a fault was detected and survived (reason, action)
})

# Payload keys that must be present for each kind (beyond these, payloads
# are open — producers may attach whatever context they have).
_REQUIRED_PAYLOAD: dict[str, tuple[str, ...]] = {
    "run_begin": (),
    "run_end": ("seconds",),
    "train_begin": ("phase",),
    "train_end": ("phase",),
    "step": ("step", "loss"),
    "epoch_end": ("epoch", "seconds"),
    "eval": ("epoch", "f1"),
    "span": ("name", "seconds"),
    "metric": ("name", "metric_kind"),
    "profile": ("ops",),
    "checkpoint": ("step",),
    "recovery": ("reason", "action"),
}


def validate_event(event: dict) -> None:
    """Raise ``ValueError`` if ``event`` does not satisfy the schema."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be a dict, got {type(event).__name__}")
    for field, types in (("run_id", str), ("ts", (int, float)),
                         ("seq", int), ("kind", str), ("payload", dict)):
        if field not in event:
            raise ValueError(f"event missing field {field!r}: {event}")
        if not isinstance(event[field], types):
            raise ValueError(f"event field {field!r} has wrong type: "
                             f"{type(event[field]).__name__}")
    kind = event["kind"]
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    payload = event["payload"]
    for key in _REQUIRED_PAYLOAD[kind]:
        if key not in payload:
            raise ValueError(
                f"{kind!r} payload missing required key {key!r}: {payload}")


class EventSink:
    """Destination for telemetry events."""

    def emit(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class NullSink(EventSink):
    """Drops every event; the disabled-telemetry fast path."""

    __slots__ = ()

    def emit(self, event: dict) -> None:
        pass


class MemorySink(EventSink):
    """Keeps events in a list (used by tests and in-process consumers)."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)


class JsonlSink(EventSink):
    """Appends one JSON object per line to ``path`` (truncates on open)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, default=float))
        self._fh.write("\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL telemetry file back into event dicts (strict)."""
    events, skipped = read_events_tolerant(path)
    if skipped:
        raise json.JSONDecodeError(
            f"{skipped} corrupt line(s) in {path} (use "
            f"read_events_tolerant to skip them)", doc="", pos=0)
    return events


def read_events_tolerant(path: str | Path) -> tuple[list[dict], int]:
    """Parse a JSONL telemetry file, skipping unparseable lines.

    Returns ``(events, skipped)``.  A crash mid-``emit`` leaves a
    truncated final line (and a killed writer can corrupt earlier
    ones); the readable events are still a valid prefix of the run, so
    the report tooling reads through this and surfaces the count
    instead of refusing the whole file.
    """
    events: list[dict] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(event, dict):
                events.append(event)
            else:
                skipped += 1
    return events, skipped


def span_payloads(root: Span):
    """One ``span`` event payload per node of ``root``'s tree: the
    node's :meth:`~repro.obs.tracing.Span.as_dict` plus its ``depth``
    and slash-joined ``path``."""
    for span, depth, path in root.walk():
        payload = span.as_dict()
        payload["depth"] = depth
        payload["path"] = path
        yield payload


class TelemetryRun:
    """One run's telemetry: a sink plus the registry/tracer feeding it.

    Stamps every event with ``run_id``/``ts``/``seq``.  On :meth:`close`
    it drains the spans completed during the run (``span`` events), the
    registry snapshot (``metric`` events) and a final ``run_end``, then
    closes the sink.  Usable as a context manager.
    """

    def __init__(self, sink: EventSink | None = None,
                 run_id: str = "run",
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 span_mark: int | None = None):
        self.sink = sink or NullSink()
        self.run_id = run_id
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or default_tracer()
        self._seq = 0
        self._mark = self.tracer.mark() if span_mark is None else span_mark
        self._t0 = time.perf_counter()
        self._closed = False

    def emit(self, kind: str, **payload) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = {"run_id": self.run_id, "ts": time.time(),
                 "seq": self._seq, "kind": kind, "payload": payload}
        self._seq += 1
        self.sink.emit(event)

    def span(self, name: str, **attrs):
        """Open a span on this run's tracer (context manager)."""
        return self.tracer.span(name, **attrs)

    def close(self) -> None:
        if self._closed:
            return
        for root in self.tracer.since(self._mark):
            for payload in span_payloads(root):
                self.emit("span", **payload)
        for name, snap in self.registry.snapshot().items():
            snap = dict(snap)
            self.emit("metric", name=name, metric_kind=snap.pop("kind"),
                      **snap)
        self.emit("run_end", seconds=time.perf_counter() - self._t0)
        self._closed = True
        self.sink.close()

    def __enter__(self) -> "TelemetryRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
