"""The ``repro obs top`` terminal dashboard.

A glanceable serving cockpit rendered from the same primitives the
tests assert on: queue depth and request counters from the
:class:`~repro.obs.registry.MetricsRegistry`, latency quantiles from
the bucketed histograms, error-budget state from an
:class:`~repro.obs.slo.SLOMonitor`, and the slowest recent request
traces from a :class:`~repro.obs.tracing.Tracer`.

Two data sources:

* **local** — :func:`gather_local` reads live in-process objects
  (the demo mode wires a :class:`~repro.serve.clock.VirtualClock` load
  simulation to one);
* **remote** — :func:`gather_url` scrapes a
  :class:`~repro.obs.expo.MetricsHTTPServer` ``/metrics`` endpoint and
  reconstructs quantiles from the cumulative bucket counts (traces and
  budget detail stay local-only; the scrape has no span access).

:func:`run_top` drives the render loop: on a TTY it clears and
redraws every interval (ANSI home+clear, no curses dependency); on a
pipe it prints one snapshot and exits, so ``repro obs top --demo |
grep p95`` works in scripts and tests.
"""

from __future__ import annotations

import sys
import time

from .registry import Histogram, MetricsRegistry

__all__ = ["gather_local", "gather_url", "demo_state", "render_dashboard",
           "run_top"]


def _family_sum(registry: MetricsRegistry, name: str) -> float:
    return sum(m.value for m in registry.families().get(name, []))


def _histograms(registry: MetricsRegistry, name: str) -> list[Histogram]:
    return list(registry.families().get(name, []))


def _quantile_from_buckets(buckets: list[tuple[float, float]],
                           q: float) -> float:
    """Estimate a quantile from cumulative ``(le, count)`` pairs by
    linear interpolation within the containing bucket."""
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    rank = q * total
    low_bound, low_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return low_bound
            span = count - low_count
            if span <= 0:
                return bound
            return low_bound + (bound - low_bound) \
                * (rank - low_count) / span
        low_bound, low_count = bound, count
    return low_bound


def _latency_quantiles(registry: MetricsRegistry,
                       name: str = "serve.latency_seconds") -> dict:
    metrics = _histograms(registry, name)
    if not metrics:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    if len(metrics) == 1:
        h = metrics[0]
        return {"count": h.count, "p50": h.p50, "p95": h.p95,
                "p99": h.p99}
    merged: dict[float, float] = {}
    for h in metrics:
        for bound, count in h.bucket_counts():
            merged[bound] = merged.get(bound, 0.0) + count
    buckets = sorted(merged.items())
    return {"count": sum(h.count for h in metrics),
            "p50": _quantile_from_buckets(buckets, 0.50),
            "p95": _quantile_from_buckets(buckets, 0.95),
            "p99": _quantile_from_buckets(buckets, 0.99)}


def _trace_line(root) -> dict:
    stages = ", ".join(
        f"{child.name} {child.duration * 1000:.1f}ms"
        for child in root.children if child.duration > 0) or "instant"
    return {"trace_id": root.trace_id,
            "ms": root.duration * 1000.0,
            "outcome": root.attrs.get("outcome", "?"),
            "stages": stages}


def gather_local(registry: MetricsRegistry, monitor=None, tracer=None,
                 source: str = "local") -> dict:
    """One dashboard state dict from in-process observability objects."""
    batch = _histograms(registry, "serve.batch.size")
    state = {
        "source": source,
        "queue_depth": _family_sum(registry, "serve.queue.depth"),
        "counters": {
            key: _family_sum(registry, f"serve.{key}")
            for key in ("requests", "completed", "rejected", "timeouts",
                        "degraded")},
        "latency": _latency_quantiles(registry),
        "batch": {
            "count": sum(h.count for h in batch),
            "mean": (sum(h.total for h in batch)
                     / max(sum(h.count for h in batch), 1)),
            "max": max((h.max for h in batch if h.count), default=0.0)},
        "slo": [],
        "slowest": [],
    }
    if monitor is not None:
        monitor.record()
        monitor.evaluate()
        firing = {(a.slo, a.window) for a in monitor.firing()}
        for slo in monitor.slos:
            state["slo"].append({
                "name": slo.name,
                "objective": slo.objective,
                "budget_remaining":
                    monitor.error_budget_remaining(slo.name),
                "firing": sorted(w for s, w in firing if s == slo.name)})
    if tracer is not None:
        state["slowest"] = [_trace_line(root)
                            for root in tracer.slowest(5)]
    return state


def gather_url(url: str, timeout: float = 5.0) -> dict:
    """Dashboard state scraped from a ``/metrics`` endpoint."""
    import urllib.request

    from .expo import parse_prometheus
    with urllib.request.urlopen(f"{url.rstrip('/')}/metrics",
                                timeout=timeout) as response:
        series = parse_prometheus(response.read().decode("utf-8"))

    def counter(name: str) -> float:
        return sum(v for k, v in series.items()
                   if k == name or k.startswith(name + "{"))

    prefix = "serve_latency_seconds_bucket{le="
    bounds = {k: k[len(prefix):-1].strip('"')
              for k in series if k.startswith(prefix)}
    buckets = sorted(
        (float("inf") if bound == "+Inf" else float(bound), series[k])
        for k, bound in bounds.items())
    batch_count = counter("serve_batch_size_count")
    return {
        "source": url,
        "queue_depth": counter("serve_queue_depth"),
        "counters": {key: counter(f"serve_{key}")
                     for key in ("requests", "completed", "rejected",
                                 "timeouts", "degraded")},
        "latency": {
            "count": counter("serve_latency_seconds_count"),
            "p50": _quantile_from_buckets(buckets, 0.50),
            "p95": _quantile_from_buckets(buckets, 0.95),
            "p99": _quantile_from_buckets(buckets, 0.99)},
        "batch": {
            "count": batch_count,
            "mean": counter("serve_batch_size_sum")
            / max(batch_count, 1),
            "max": 0.0},
        "slo": [],
        "slowest": [],
    }


def demo_state() -> dict:
    """A deterministic dashboard state from a virtual-clock load sim.

    Runs the seeded demo workload through a
    :class:`~repro.serve.MatchService` on a
    :class:`~repro.serve.clock.VirtualClock` (instant scoring, one
    deliberately slow-queued burst, one poisoned request), then
    gathers the resulting registry/monitor/tracer — zero real sleeps,
    same numbers every run.
    """
    from ..resilience import ChaosMonkey
    from ..serve import MatchService, ServeConfig
    from ..serve.backends import CallableBackend
    from ..serve.clock import VirtualClock
    from ..serve.sim import generate_workload, run_simulation
    from .slo import SLOMonitor, default_serve_slos

    clock = VirtualClock()
    registry = MetricsRegistry()
    pairs = [({"name": f"rec a{i}", "city": "x" * (i % 5 + 1)},
              {"name": f"rec b{i}", "city": "x" * (i % 5 + 1)})
             for i in range(16)]
    workload = generate_workload(pairs, num_requests=120, rate=150.0,
                                 pattern="poisson", seed=11)
    chaos = ChaosMonkey(seed=3, poison_forward_rows=frozenset({5, 41}))
    service = MatchService(
        CallableBackend(lambda a, b: 0.25 + 0.5 * (len(dict(a)) % 2)),
        ServeConfig(max_batch_size=8, max_wait_ms=4.0, max_queue=32,
                    default_timeout_ms=250.0),
        clock=clock, registry=registry, chaos=chaos)
    monitor = SLOMonitor(default_serve_slos(), registry=registry,
                         clock=clock)
    monitor.record()
    run_simulation(service, workload)
    return gather_local(registry, monitor=monitor,
                        tracer=service.tracer, source="demo (virtual)")


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:7.1f}"


def render_dashboard(state: dict) -> str:
    """The dashboard state as fixed-width terminal text."""
    counters = state["counters"]
    latency = state["latency"]
    batch = state["batch"]
    lines = [
        f"repro obs top — source: {state['source']}",
        "",
        f"queue depth {int(state['queue_depth']):>6}    "
        f"requests {int(counters['requests']):>7}    "
        f"completed {int(counters['completed']):>7}",
        f"rejected  {int(counters['rejected']):>8}    "
        f"timeouts {int(counters['timeouts']):>7}    "
        f"degraded  {int(counters['degraded']):>7}",
        "",
        f"latency ms   p50 {_fmt_ms(latency['p50'])}   "
        f"p95 {_fmt_ms(latency['p95'])}   "
        f"p99 {_fmt_ms(latency['p99'])}   "
        f"(n={int(latency['count'])})",
        f"batch size   mean {batch['mean']:7.2f}   "
        f"max {batch['max']:7.1f}   "
        f"(n={int(batch['count'])})",
    ]
    if state["slo"]:
        lines.append("")
        lines.append("error budget:")
        for entry in state["slo"]:
            status = (f"FIRING: {', '.join(entry['firing'])}"
                      if entry["firing"] else "ok")
            lines.append(
                f"  {entry['name']:<20} objective "
                f"{entry['objective'] * 100:5.1f}%   "
                f"budget {entry['budget_remaining'] * 100:6.1f}%   "
                f"{status}")
    if state["slowest"]:
        lines.append("")
        lines.append("slowest recent traces:")
        for trace in state["slowest"]:
            lines.append(
                f"  {trace['trace_id']}  {trace['ms']:7.1f} ms  "
                f"[{trace['outcome']}]  {trace['stages']}")
    return "\n".join(lines) + "\n"


def run_top(gather, stream=None, interval: float = 2.0,
            iterations: int | None = None, live: bool | None = None,
            sleep=time.sleep) -> int:
    """Drive the dashboard: live redraw on a TTY, one-shot otherwise.

    ``gather`` is a zero-argument callable returning a state dict;
    ``iterations=None`` means run until interrupted (live mode) or
    print once (snapshot mode).  Returns a process exit code.
    """
    stream = stream if stream is not None else sys.stdout
    if live is None:
        live = bool(getattr(stream, "isatty", lambda: False)())
    rounds = iterations if iterations is not None else (None if live
                                                       else 1)
    done = 0
    try:
        while rounds is None or done < rounds:
            frame = render_dashboard(gather())
            if live:
                stream.write("\x1b[2J\x1b[H")
            stream.write(frame)
            stream.flush()
            done += 1
            if rounds is not None and done >= rounds:
                break
            sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
