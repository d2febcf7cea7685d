"""Serving throughput/latency — micro-batching must beat serial trickle.

Replays seeded Poisson workloads (dblp-acm record pairs) through the
:class:`repro.serve.MatchService` on the real clock at three offered
load levels (0.5x / 1x / 2x the measured serial ``match_many``
throughput) and reports per-level completion counts, throughput and
p50/p95 request latency against the serial baseline.

The acceptance floor — service throughput at the top load level >=
half the serial pairs/sec, from the paired A/B timer's median ratio
judged on the lower end of its bootstrap interval (coalescing overhead
must not eat the batching win) — is recorded in ``BENCH_serve.json`` at
the repo root; ``python -m repro bench serve`` is the command-line
entry point.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.perf.harness import failed_gates, write_report
from repro.serve.bench import run_serve_benchmark

from _shared import emit, run_once

REPORT_PATH = Path(__file__).parent.parent / "BENCH_serve.json"


def test_serve_throughput(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        report = run_once(benchmark, lambda: run_serve_benchmark(
            zoo_dir=Path(tmp) / "zoo"))
    write_report(report, REPORT_PATH)
    emit("serve", "\n".join(report["summary"]))
    assert not failed_gates(report), failed_gates(report)
