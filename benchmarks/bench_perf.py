"""Inference throughput — fast path and the cascade.

Times ``match_many`` for every architecture on the same workload
(dblp-acm record pairs, each unique pair matched twice so the
tokenization cache sees repeats), each comparison through the paired
A/B timer of ``repro.perf.harness``:

1. fast vs. serial — length-bucketed batches + tokenization cache
   against serial per-pair matching without the cache, through the
   same tape-off forward; the per-architecture floor is judged on the
   lower end of the median ratio's bootstrap interval;
2. cascade vs. RoBERTa serial — DistilBERT screens every pair,
   ambiguous ones escalate to RoBERTa; the aggregate floor is >= 4x
   with cascade F1 within tolerance of RoBERTa-only.

Decisions must agree between paths — a speedup that changes answers is
a bug, not an optimization.  The report is recorded in
``BENCH_perf.json`` at the repo root; ``python -m repro bench perf`` is
the command-line entry point.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.perf.bench import run_perf_benchmark
from repro.perf.harness import failed_gates, write_report

from _shared import emit, run_once

REPORT_PATH = Path(__file__).parent.parent / "BENCH_perf.json"


def test_perf_throughput(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        report = run_once(benchmark, lambda: run_perf_benchmark(
            zoo_dir=Path(tmp) / "zoo"))
    write_report(report, REPORT_PATH)
    emit("perf", "\n".join(report["summary"]))
    assert not failed_gates(report), failed_gates(report)
