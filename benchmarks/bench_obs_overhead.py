"""Tracing overhead — request-scoped observability must be near-free.

Request tracing (span trees, stage timings, exemplars) runs inline on
the serving hot path, so its cost is bounded by contract: with head
sampling enabled at the default rate (every request traced), a
saturating drain through :class:`repro.serve.MatchService` may take at
most 3% longer than the same drain with tracing disabled
(``trace_sample_rate=0``).

Both configurations drain the same burst workload on the real clock,
paired by the A/B timer of ``repro.perf.harness``; the gate is the
median paired time ratio minus one, judged on the upper end of its
bootstrap interval.  The scorecard is recorded in ``BENCH_obs.json`` at
the repo root.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path

from repro.obs import MetricsRegistry
from repro.perf import harness
from repro.serve import MatchService, MatcherBackend, ServeConfig
from repro.serve.clock import SystemClock
from repro.serve.sim import generate_workload, run_simulation

from _shared import emit, run_once

REPORT_PATH = Path(__file__).parent.parent / "BENCH_obs.json"

#: Traced drains may take at most this fraction longer than untraced.
OVERHEAD_BUDGET = 0.03

#: Offered rate high enough that every request is queued immediately —
#: the service runs back-to-back full batches and the drain time
#: measures scoring plus per-request bookkeeping, not arrival pacing.
_SATURATION_RATE = 1e6


def _drain(matcher, pairs, sample_rate: float, seed: int,
           batch_size: int):
    workload = generate_workload(pairs, num_requests=len(pairs),
                                 rate=_SATURATION_RATE, seed=seed,
                                 pattern="poisson")
    service = MatchService(
        MatcherBackend(matcher, batch_size=batch_size),
        ServeConfig(max_batch_size=batch_size,
                    max_wait_ms=1.0,
                    max_queue=len(pairs) + batch_size,
                    trace_sample_rate=sample_rate),
        clock=SystemClock(), registry=MetricsRegistry())
    report = run_simulation(service, workload)
    if report.completed != len(pairs):
        raise AssertionError(
            f"saturation run dropped requests: {report.completed}"
            f"/{len(pairs)} completed")
    return report


def run_obs_benchmark(num_pairs: int = 200, seed: int = 0,
                      zoo_dir=None, batch_size: int = 32) -> dict:
    """Run the tracing-overhead benchmark and return the report dict."""
    splits, pairs = harness.build_workload(num_pairs, seed)
    matcher = harness.fit_matcher("bert", splits, seed, zoo_dir)
    matcher.match_many(pairs[:8], fast=True)  # warm the token cache
    timing = harness.paired(
        lambda: _drain(matcher, pairs, 0.0, seed, batch_size),
        lambda: _drain(matcher, pairs, 1.0, seed, batch_size))
    untraced, traced = (num_pairs / statistics.median(seconds)
                        for seconds in (timing.a_seconds, timing.b_seconds))
    return harness.build_report(
        "obs_overhead", smoke=False,
        config={"arch": "bert", "pairs": num_pairs, "seed": seed,
                "batch_size": batch_size, "cycles": len(timing.ratios)},
        gates=[timing.gate("overhead_fraction", OVERHEAD_BUDGET,
                           "ceiling", shift=-1.0)],
        summary=[f"tracing overhead at saturation (bert, {num_pairs} "
                 f"pairs, batch size {batch_size}, "
                 f"{len(timing.ratios)} paired cycles)",
                 f"  trace_sample_rate=0.0 : {untraced:8.1f} pairs/s",
                 f"  trace_sample_rate=1.0 : {traced:8.1f} pairs/s"],
        timing=timing.as_dict())


def test_obs_overhead(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        report = run_once(benchmark, lambda: run_obs_benchmark(
            zoo_dir=Path(tmp) / "zoo"))
    harness.write_report(report, REPORT_PATH)
    emit("obs_overhead", "\n".join(report["summary"]))
    assert not harness.failed_gates(report), report["summary"][-2]
