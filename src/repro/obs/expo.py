"""Metric and span exposition: Prometheus text, HTTP scrape, JSONL spans.

Three exits from the in-process observability state:

* :func:`render_prometheus` — serialize a
  :class:`~repro.obs.registry.MetricsRegistry` in the Prometheus text
  exposition format (version 0.0.4): ``# TYPE`` headers, label sets,
  cumulative ``_bucket{le=...}`` series with ``_sum``/``_count`` for
  bucketed histograms, summary-style ``{quantile=...}`` series for
  bucketless ones, and OpenMetrics-style ``# {trace_id=...}`` exemplars
  linking bucket lines back to traces.  :func:`parse_prometheus` is the
  inverse (for the dashboard's remote mode and round-trip tests).
* :class:`MetricsHTTPServer` — a stdlib ``http.server`` scrape endpoint
  serving ``/metrics`` (the rendered registry) and ``/healthz`` (a JSON
  health document from a caller-supplied probe).
* :class:`SpanExporter` — drains a
  :class:`~repro.obs.tracing.Tracer`'s completed request traces into
  OTLP-flavored ``span`` events (trace_id / span_id / parent_span_id /
  start / end) on any :class:`~repro.obs.events.EventSink`, validated
  against the telemetry schema so ``repro telemetry`` renders the file
  unchanged.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .events import EventSink, JsonlSink, span_payloads, validate_event
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import Span, Tracer

__all__ = ["render_prometheus", "parse_prometheus", "sanitize_name",
           "MetricsHTTPServer", "SpanExporter"]

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_VALID_REST = _VALID_FIRST | set("0123456789")


def sanitize_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset.

    Dots (and anything else outside ``[a-zA-Z0-9_:]``) become
    underscores; a leading digit gains an underscore prefix.
    """
    out = "".join(ch if ch in _VALID_REST else "_" for ch in name)
    if not out or out[0] not in _VALID_FIRST:
        out = "_" + out
    return out


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels(pairs: dict) -> str:
    if not pairs:
        return ""
    rendered = ",".join(f'{sanitize_name(str(k))}="{_escape(v)}"'
                        for k, v in sorted(pairs.items()))
    return "{" + rendered + "}"


def _format(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value != value:
        return "NaN"
    return repr(float(value))


def _bucket_exemplar(exemplars, low: float, high: float) -> str:
    """OpenMetrics exemplar suffix for the newest sample in (low, high]."""
    for value, trace_id in reversed(exemplars):
        if low < value <= high:
            return (f' # {{trace_id="{_escape(trace_id)}"}} '
                    f'{_format(value)}')
    return ""


def _histogram_lines(name: str, metric: Histogram) -> list[str]:
    lines = []
    base = dict(metric.labels)
    if metric.bounds is not None:
        exemplars = metric.exemplars()
        low = float("-inf")
        for bound, cumulative in metric.bucket_counts():
            labels = dict(base)
            labels["le"] = _format(bound)
            lines.append(f"{name}_bucket{_labels(labels)} {cumulative}"
                         f"{_bucket_exemplar(exemplars, low, bound)}")
            low = bound
    else:
        for q in (0.5, 0.95, 0.99):
            labels = dict(base)
            labels["quantile"] = _format(q)
            lines.append(f"{name}{_labels(labels)} "
                         f"{_format(metric.quantile(q))}")
    total, count = metric.sum_count()
    lines.append(f"{name}_sum{_labels(base)} {_format(total)}")
    lines.append(f"{name}_count{_labels(base)} {count}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    for family_name, series in registry.families().items():
        name = sanitize_name(family_name)
        kind = type(series[0])
        if kind is Counter:
            prom_type = "counter"
        elif kind is Gauge:
            prom_type = "gauge"
        elif series[0].bounds is not None:
            prom_type = "histogram"
        else:
            prom_type = "summary"
        lines.append(f"# HELP {name} repro metric {family_name}")
        lines.append(f"# TYPE {name} {prom_type}")
        for metric in series:
            if isinstance(metric, Histogram):
                lines.extend(_histogram_lines(name, metric))
            else:
                # snapshot() reads under the metric's lock; a bare
                # .value read races concurrent inc()/set() writers.
                lines.append(f"{name}{_labels(metric.labels)} "
                             f"{_format(metric.snapshot()['value'])}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Inverse of :func:`render_prometheus`: ``{series: value}``.

    Series keys keep their label block verbatim (``name{k="v"}``);
    comment lines and exemplar suffixes are dropped.  Raises
    ``ValueError`` on a line that is neither.
    """
    out: dict[str, float] = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body = line.split(" # ", 1)[0].rstrip()
        if "}" in body:
            cut = body.rindex("}") + 1
            series, value = body[:cut], body[cut:].strip()
        else:
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"unparsable exposition line {number}: "
                                 f"{line!r}")
            series, value = parts
        special = {"+Inf": float("inf"), "-Inf": float("-inf"),
                   "NaN": float("nan")}
        out[series] = special.get(value, None)
        if out[series] is None:
            out[series] = float(value)
    return out


class _ScrapeHandler(BaseHTTPRequestHandler):
    """GET-only handler bound to one server's registry and health probe."""

    server_version = "repro-obs/2"

    def do_GET(self):  # noqa: N802 — http.server API
        if self.path.split("?", 1)[0] == "/metrics":
            body = render_prometheus(self.server.registry).encode("utf-8")
            content_type = ("text/plain; version=0.0.4; "
                            "charset=utf-8")
        elif self.path.split("?", 1)[0] == "/healthz":
            payload = {"status": "ok"}
            try:
                payload.update(self.server.health() or {})
            except Exception as exc:  # noqa: BLE001 — a failing probe
                # is exactly what the endpoint must report, not raise.
                payload = {"status": "failing",
                           "error": f"{type(exc).__name__}: {exc}"}
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        else:
            self.send_error(404, "unknown path (try /metrics, /healthz)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # scrapes are too chatty for stderr
        pass


class MetricsHTTPServer:
    """Scrape endpoint for one registry: ``/metrics`` + ``/healthz``.

    ``health`` is an optional zero-argument callable returning a dict to
    merge into the health document (e.g. queue depth and worker count
    from a :class:`~repro.serve.MatchService`); a raising probe turns
    the status to ``"failing"`` instead of breaking the endpoint.
    ``port=0`` (default) binds an ephemeral port — read it back from
    ``.port`` / ``.url``.  Usable as a context manager.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 host: str = "127.0.0.1", port: int = 0, health=None):
        from .registry import default_registry
        self.registry = (registry if registry is not None
                         else default_registry())
        self._server = ThreadingHTTPServer((host, port), _ScrapeHandler)
        self._server.registry = self.registry
        self._server.health = health or (lambda: {})
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "MetricsHTTPServer":
        """Serve on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever, daemon=True,
                name="repro-obs-metrics")
            self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class SpanExporter:
    """Drain completed request traces into telemetry ``span`` events.

    Every span in every newly completed trace becomes one event with
    the payload :class:`~repro.obs.events.TelemetryRun` writes too
    (:func:`~repro.obs.events.span_payloads`): the OTLP essentials
    (``trace_id`` / ``span_id`` / ``parent_span_id`` / ``start`` /
    ``end`` / ``seconds``) plus the span's attributes.  Events satisfy
    :func:`~repro.obs.events.validate_event`, so the files interleave
    with training telemetry and render through ``repro telemetry``.  Already-exported traces
    are remembered by trace id, so :meth:`drain` is safe to call on a
    schedule.
    """

    def __init__(self, sink: EventSink, run_id: str = "serve"):
        self.sink = sink
        self.run_id = run_id
        self._seq = 0
        self._seen: set[str] = set()

    @classmethod
    def to_path(cls, path, run_id: str = "serve") -> "SpanExporter":
        """An exporter appending JSONL events to ``path``."""
        return cls(JsonlSink(path), run_id=run_id)

    def export(self, root: Span) -> int:
        """Emit one trace tree; returns the number of span events."""
        emitted = 0
        for payload in span_payloads(root):
            event = {"run_id": self.run_id, "ts": time.time(),
                     "seq": self._seq, "kind": "span",
                     "payload": payload}
            validate_event(event)
            self.sink.emit(event)
            self._seq += 1
            emitted += 1
        self._seen.add(root.trace_id)
        return emitted

    def drain(self, tracer: Tracer) -> int:
        """Export every completed trace not yet exported; returns the
        number of traces written."""
        drained = 0
        for root in tracer.snapshot():
            if root.trace_id not in self._seen:
                self.export(root)
                drained += 1
        return drained

    def close(self) -> None:
        self.sink.close()
