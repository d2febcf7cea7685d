"""Resilience overhead — fault tolerance must be pay-for-what-you-use.

``fine_tune(..., resilience=None)`` (the default) must run the original
fast path: no guard checks, no snapshot packing, no chaos branches
beyond a handful of ``is None`` tests.  This benchmark guards that
contract on a complete miniature fine-tune run (2 epochs on a reduced
dblp-acm split with a 2-layer BERT):

1. empirically — off → on → off: the paired A/B timer of
   ``repro.perf.harness`` times a ``resilience=None`` run right after
   an (untimed) armed run against a plain ``resilience=None`` run, and
   the residual (median paired ratio minus one, judged on the upper end
   of its bootstrap interval) stays under 2%;
2. informationally — the fully armed configuration (checkpoints every
   few steps + divergence guard) is timed against the plain run and
   reported; it is allowed to cost more (it does real I/O).
"""

from __future__ import annotations

from repro.data import load_benchmark, split_dataset
from repro.matching import FineTuneConfig, fine_tune
from repro.perf.harness import (build_report, failed_gates, paired,
                                tiny_settings, write_report)
from repro.pretraining import get_pretrained
from repro.resilience import ResilienceConfig
from repro.utils import child_rng

from _shared import OUT_DIR, emit, run_once


def _make_run(tmp_dir):
    pretrained = get_pretrained("bert", seed=0, settings=tiny_settings(),
                                zoo_dir=tmp_dir / "zoo")
    data = load_benchmark("dblp-acm", seed=7, scale=0.03)
    splits = split_dataset(data, child_rng(7, "split", "dblp-acm"))
    config = FineTuneConfig(epochs=2, batch_size=8, max_length_cap=32)

    def run(resilience=None):
        return fine_tune(pretrained, splits.train, splits.test,
                         config=config, seed=3, resilience=resilience)

    return run


def test_resilience_off_overhead(benchmark, tmp_path):
    run = _make_run(tmp_path)
    armed = ResilienceConfig(checkpoint_dir=tmp_path / "ck",
                             checkpoint_every=5)

    def measure():
        run()  # warm allocator and code paths before timing
        return (paired(run, run, setup_b=lambda: run(resilience=armed)),
                paired(run, lambda: run(resilience=armed)))

    residual, armed_run = run_once(benchmark, measure)
    report = build_report(
        "resilience_overhead", smoke=False,
        config={"epochs": 2, "cycles": len(residual.ratios)},
        gates=[residual.gate("off_residual", 0.02, "ceiling",
                             shift=-1.0)],
        summary=[f"Resilience overhead ({len(residual.ratios)} paired "
                 f"cycles of a 2-epoch fine-tune)",
                 f"  armed (ckpt every 5 + guard): "
                 f"{armed_run.median:.2f}x the resilience=None run "
                 f"(informational)"],
        residual=residual.as_dict(), armed=armed_run.as_dict())
    write_report(report, OUT_DIR / "resilience_overhead.json")
    emit("resilience_overhead", "\n".join(report["summary"]))
    assert not failed_gates(report), report["summary"][-2]
