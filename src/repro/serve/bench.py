"""The serving benchmark behind ``repro bench serve``.

Fits one matcher, measures the serial ``match_many`` rate, then replays
seeded Poisson workloads through :class:`MatchService` on the real
clock at several offered-load levels (fractions of that rate).  The
efficiency gate pairs the top-load drain against serial ``match_many``
through the paired A/B timer of :mod:`repro.perf.harness`: the median
paired ratio (serial seconds over service seconds for the same pairs)
must keep half the serial throughput, judged on the lower end of its
bootstrap interval.  The scorecard — per-level throughput, p50/p95
request latency from each request's due time, rejection/timeout
counts and the driver's p99 lateness — goes to ``BENCH_serve.json``.

Imports from ``repro.matching`` stay inside the functions (through the
harness): the matching layer imports serving's sibling packages, and
module-level imports here would be circular.
"""

from __future__ import annotations

from ..perf import harness
from .backends import MatcherBackend
from .clock import SystemClock
from .service import MatchService, ServeConfig
from .sim import generate_workload, run_simulation

__all__ = ["run_serve_benchmark", "LOAD_LEVELS", "EFFICIENCY_FLOOR"]

#: Offered load as fractions of the measured serial throughput; the
#: last (highest) level is the one the efficiency gate times.
LOAD_LEVELS = (0.5, 1.0, 2.0)
#: Acceptance floor: service throughput at the highest load level must
#: reach this fraction of the serial ``match_many`` throughput (the
#: micro-batcher's coalescing overhead must not eat the batching win).
EFFICIENCY_FLOOR = 0.5


def _run_level(matcher, pairs, level: float, baseline_rate: float,
               seed: int, batch_size: int, max_wait_ms: float) -> dict:
    rate = max(level * baseline_rate, 1e-6)
    workload = generate_workload(pairs, num_requests=len(pairs),
                                 rate=rate, seed=seed,
                                 pattern="poisson")
    from ..obs import MetricsRegistry
    service = MatchService(
        MatcherBackend(matcher, batch_size=batch_size),
        ServeConfig(max_batch_size=batch_size, max_wait_ms=max_wait_ms,
                    max_queue=max(4 * batch_size, len(pairs))),
        clock=SystemClock(), registry=MetricsRegistry())
    report = run_simulation(service, workload)
    return {"offered_rate": rate, **report.scorecard()}


def run_serve_benchmark(arch: str = "bert", num_pairs: int = 200,
                        seed: int = 0, zoo_dir=None,
                        batch_size: int = 32, max_wait_ms: float = 10.0,
                        smoke: bool = False) -> dict:
    """Run the serving benchmark and return the report dict."""
    if smoke:
        num_pairs = min(num_pairs, 24)
    splits, pairs = harness.build_workload(num_pairs, seed)
    matcher = harness.fit_matcher(arch, splits, seed, zoo_dir)
    baseline = harness.serial_baseline(matcher, pairs)

    def level(load: float) -> dict:
        return _run_level(matcher, pairs, load, baseline["pairs_per_sec"],
                          seed, batch_size, max_wait_ms)

    *lower, top = LOAD_LEVELS
    levels = {f"{load:g}x": level(load) for load in lower}
    timing = harness.paired(lambda: level(top),
                            lambda: matcher.match_many(pairs, fast=True),
                            cycles=harness.cycles_for(smoke))
    levels[f"{top:g}x"] = timing.a_result
    config = {"arch": arch, "pairs": num_pairs, "seed": seed,
              "batch_size": batch_size, "max_wait_ms": max_wait_ms,
              "load_levels": list(LOAD_LEVELS),
              "cycles": len(timing.ratios)}
    summary = [f"match service under load ({arch}, {num_pairs} pairs, "
               f"batch size {batch_size}, flush {max_wait_ms} ms)",
               f"  serial baseline: {baseline['pairs_per_sec']:8.1f} "
               f"pairs/s"]
    for name, stats in levels.items():
        summary.append(
            f"  {name:<5} load {stats['offered_rate']:8.1f} req/s: "
            f"{stats['completed']}/{stats['offered']} done at "
            f"{stats['throughput']:8.1f} req/s, "
            f"p50 {stats['p50_latency_ms']:7.1f} ms, "
            f"p95 {stats['p95_latency_ms']:7.1f} ms, "
            f"{stats['rejected']} rejected, "
            f"{stats['timeouts']} timed out")
    return harness.build_report(
        "serve", smoke=smoke, config=config,
        gates=[timing.gate("efficiency_at_top_load", EFFICIENCY_FLOOR)],
        summary=summary, baseline=baseline, levels=levels,
        efficiency=timing.as_dict())
