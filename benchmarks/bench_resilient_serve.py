"""Resilient serving — availability under chaos, overhead without it.

Injects the same seeded chaos schedule (worker kills, slow forwards,
poisoned forwards) into a naive single :class:`repro.serve.MatchService`
client and into the three-replica fault-tolerance tier
(:class:`repro.serve.ResilientClient` — retries with seeded backoff,
per-replica circuit breakers, hedged requests, load shedding, and the
self-healing :class:`repro.serve.ReplicaSet` supervisor), both at 1x
the measured serial offered load.

Acceptance (recorded in ``BENCH_resilient.json`` at the repo root): the
resilient tier sustains >= 99.9% non-error completion while the naive
client measurably does not (< 99%), and with chaos off the tier's
drain-time overhead over the bare service, from the paired A/B timer's
median ratio judged on the upper end of its bootstrap interval, stays
under 2%.  ``python -m repro bench resilient`` is the command-line
entry point.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.perf.harness import failed_gates, write_report
from repro.serve.bench_resilient import run_resilient_benchmark

from _shared import emit, run_once

REPORT_PATH = Path(__file__).parent.parent / "BENCH_resilient.json"


def test_resilient_availability(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        report = run_once(benchmark, lambda: run_resilient_benchmark(
            zoo_dir=Path(tmp) / "zoo"))
    write_report(report, REPORT_PATH)
    emit("resilient", "\n".join(report["summary"]))
    assert not failed_gates(report), failed_gates(report)
