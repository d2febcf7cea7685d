"""Lockset detector overhead — instrumentation must be pay-per-use.

``repro.utils.concurrency`` threads ``access()`` probes and lock
factories through the hot paths of ``repro.perf.cache``,
``repro.obs.registry`` and ``repro.serve``; with no
:class:`~repro.analysis.concurrency.RaceDetector` active each probe is
one module-global load and a ``None`` test.  This benchmark guards that
contract on the busiest instrumented path — LRU cache gets/puts mixed
with registry counter increments and histogram observes:

1. structurally — after a detector context exits, the access hook and
   lock factory slots are back to ``None``, so the off path is the
   pristine single-check fast path;
2. empirically — off → on → off: the paired A/B timer of
   ``repro.perf.harness`` times the detector-off workload right after
   an (untimed) detector-on run against the detector-off workload, and
   the residual (median paired ratio minus one, judged on the upper end
   of its bootstrap interval) stays under 2%;
3. informationally — the detector-on slowdown is reported (it may be
   large; the detector is a debugging tool, not a production mode).
"""

from __future__ import annotations

from repro.analysis.concurrency import RaceDetector
from repro.obs import MetricsRegistry
from repro.perf.cache import LRUCache
from repro.perf.harness import (build_report, failed_gates, paired,
                                write_report)
from repro.utils.concurrency import access_hook, lock_factory

from _shared import OUT_DIR, emit, run_once

_OPS = 12000


def _workload():
    cache = LRUCache(maxsize=256)
    registry = MetricsRegistry()
    ops = registry.counter("bench.lockset.ops")
    latency = registry.histogram("bench.lockset.latency")
    for i in range(_OPS):
        key = (i * 37) % 384
        if cache.get(key) is None:
            cache.put(key, key)
        ops.inc()
        latency.observe(i * 1e-6)
    return cache.hit_rate


def _detected():
    with RaceDetector():
        return _workload()


def test_lockset_off_overhead(benchmark):
    def measure():
        _workload()  # warm allocator and code paths before timing
        return (paired(_workload, _workload, setup_b=_detected),
                paired(_workload, _detected))

    residual, detector_on = run_once(benchmark, measure)

    # Contract 1: leaving the context clears both global hook slots, so
    # "off" is structurally the single None-check fast path.
    assert access_hook() is None
    assert lock_factory() is None

    report = build_report(
        "lockset_overhead", smoke=False,
        config={"ops": _OPS, "cycles": len(residual.ratios)},
        gates=[residual.gate("off_residual", 0.02, "ceiling",
                             shift=-1.0)],
        summary=[f"Lockset detector overhead ({len(residual.ratios)} "
                 f"paired cycles of {_OPS} cache+metrics ops)",
                 f"  on (race detection): {detector_on.median:.2f}x "
                 f"the off path (informational)"],
        residual=residual.as_dict(), detector_on=detector_on.as_dict())
    write_report(report, OUT_DIR / "lockset_overhead.json")
    emit("lockset_overhead", "\n".join(report["summary"]))
    # Contract 2: the off-path residual after detector use stays < 2%.
    assert not failed_gates(report), report["summary"][-2]
