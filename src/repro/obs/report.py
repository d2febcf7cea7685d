"""Render a human-readable report from a telemetry JSONL file.

Backs the ``repro telemetry <run.jsonl>`` CLI subcommand: given only the
event stream (schema in :mod:`repro.obs.events`), reconstruct the run
summary — slowest spans, op-FLOP table, per-epoch loss/F1 curves, step
throughput and registry metrics.
"""

from __future__ import annotations

from pathlib import Path

from .events import read_events_tolerant, validate_event
from ..utils.render import format_duration, format_series, format_table

__all__ = ["render_report", "load_report"]


def _span_section(events: list[dict]) -> list[str]:
    spans = [e["payload"] for e in events if e["kind"] == "span"]
    if not spans:
        return []
    stats: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = stats.setdefault(span["name"], {
            "count": 0, "total": 0.0, "exclusive": 0.0, "max": 0.0})
        entry["count"] += 1
        entry["total"] += span["seconds"]
        entry["exclusive"] += span.get("exclusive", span["seconds"])
        entry["max"] = max(entry["max"], span["seconds"])
    rows = [[name, s["count"], format_duration(s["total"]),
             format_duration(s["exclusive"]), format_duration(s["max"])]
            for name, s in sorted(stats.items(),
                                  key=lambda kv: -kv[1]["total"])]
    return [format_table(["span", "count", "total", "exclusive", "max"],
                         rows, title="slowest spans"), ""]


def _ops_section(events: list[dict]) -> list[str]:
    merged: dict[str, dict[str, float]] = {}
    for event in events:
        if event["kind"] != "profile":
            continue
        for kind, stats in event["payload"]["ops"].items():
            entry = merged.setdefault(kind, {"calls": 0, "flops": 0.0,
                                             "bytes": 0.0})
            entry["calls"] += stats["calls"]
            entry["flops"] += stats["flops"]
            entry["bytes"] += stats["bytes"]
    if not merged:
        return []
    rows = [[kind, int(s["calls"]), f"{s['flops'] / 1e6:.2f}",
             f"{s['bytes'] / 1e6:.2f}"]
            for kind, s in sorted(merged.items(),
                                  key=lambda kv: -kv[1]["flops"])]
    return [format_table(["op", "calls", "MFLOPs", "MB"], rows,
                         title="op profile (estimated)"), ""]


def _curves_section(events: list[dict]) -> list[str]:
    lines = []
    evals = [e["payload"] for e in events if e["kind"] == "eval"]
    epochs = [e["payload"] for e in events if e["kind"] == "epoch_end"]
    if evals:
        evals.sort(key=lambda p: p["epoch"])
        lines.append(format_series(
            "F1 by epoch   ", [p["f1"] * 100.0 for p in evals]))
    if epochs:
        epochs.sort(key=lambda p: p["epoch"])
        losses = [p.get("train_loss") for p in epochs]
        if all(isinstance(l, (int, float)) for l in losses):
            lines.append(format_series("loss by epoch ", losses,
                                       precision=3))
        lines.append(format_series(
            "epoch seconds ", [p["seconds"] for p in epochs],
            precision=2))
    if lines:
        lines.append("")
    return lines


def _steps_section(events: list[dict]) -> list[str]:
    steps = [e["payload"] for e in events if e["kind"] == "step"]
    if not steps:
        return []
    lines = [f"optimizer steps: {len(steps)}"]
    rates = [p["examples_per_sec"] for p in steps
             if isinstance(p.get("examples_per_sec"), (int, float))]
    if rates:
        lines.append(f"throughput: {sum(rates) / len(rates):.1f} "
                     f"examples/s (mean over steps)")
    norms = [p["grad_norm"] for p in steps
             if isinstance(p.get("grad_norm"), (int, float))]
    if norms:
        lines.append(f"grad norm: max {max(norms):.3f}, "
                     f"final {norms[-1]:.3f}")
    lines.append("")
    return lines


def _resilience_section(events: list[dict]) -> list[str]:
    recoveries = [e["payload"] for e in events if e["kind"] == "recovery"]
    checkpoints = [e["payload"] for e in events
                   if e["kind"] == "checkpoint"]
    if not recoveries and not checkpoints:
        return []
    lines = []
    if checkpoints:
        steps = [p["step"] for p in checkpoints]
        lines.append(f"checkpoints: {len(checkpoints)} "
                     f"(last at step {max(steps)})")
    if recoveries:
        lines.append(f"recoveries: {len(recoveries)}")
        for payload in recoveries:
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(payload.items())
                if k not in ("reason", "action"))
            line = f"  {payload['reason']} -> {payload['action']}"
            if detail:
                line += f" ({detail})"
            lines.append(line)
    lines.append("")
    return lines


def _metrics_section(events: list[dict]) -> list[str]:
    metrics = [e["payload"] for e in events if e["kind"] == "metric"]
    if not metrics:
        return []
    lines = ["metrics:"]
    for payload in metrics:
        name, kind = payload["name"], payload["metric_kind"]
        if kind == "histogram" and payload.get("count"):
            lines.append(
                f"  {name}: n={payload['count']} p50={payload['p50']:.4g} "
                f"p95={payload['p95']:.4g} max={payload['max']:.4g}")
        else:
            lines.append(f"  {name}: {payload.get('value', 0)}")
    lines.append("")
    return lines


def render_report(events: list[dict], validate: bool = True) -> str:
    """Build the full text report from parsed telemetry events."""
    if validate:
        for event in events:
            validate_event(event)
    if not events:
        return "telemetry: no events"
    lines = []
    run_id = events[0].get("run_id", "?")
    begin = next((e["payload"] for e in events
                  if e["kind"] == "run_begin"), {})
    end = next((e["payload"] for e in events if e["kind"] == "run_end"),
               None)
    header = f"telemetry report — run {run_id} ({len(events)} events"
    if end is not None:
        header += f", {format_duration(end['seconds'])}"
    header += ")"
    lines.append(header)
    if begin:
        context = " ".join(f"{k}={v}" for k, v in sorted(begin.items()))
        lines.append(f"  {context}")
    trains = [e["payload"] for e in events if e["kind"] == "train_begin"]
    for info in trains:
        context = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
        lines.append(f"  train: {context}")
    lines.append("")
    lines.extend(_span_section(events))
    lines.extend(_ops_section(events))
    lines.extend(_curves_section(events))
    lines.extend(_steps_section(events))
    lines.extend(_resilience_section(events))
    lines.extend(_metrics_section(events))
    return "\n".join(lines).rstrip() + "\n"


def load_report(path: str | Path) -> str:
    """Read a JSONL telemetry file and render its report.

    Corrupt or truncated lines (a crashed writer's torn final event)
    are skipped and surfaced as a warning header rather than refusing
    the readable prefix of the run.
    """
    events, skipped = read_events_tolerant(path)
    report = render_report(events)
    if skipped:
        report = (f"warning: skipped {skipped} corrupt/truncated "
                  f"line(s) in {path}\n\n{report}")
    return report
