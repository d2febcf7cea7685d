"""Sanitizer overhead — anomaly mode must be pay-for-what-you-use.

``repro.analysis.detect_anomalies`` hooks ``Tensor._make`` and
``Tensor.backward`` only while its context is active, so a training loop
that never enters the context must run on the pristine fast path.  This
benchmark guards that contract on small fine-tune steps (forward +
cross-entropy + backward + Adam step on a 2-layer BERT classifier):

1. structurally — after a sanitized step the hooks are restored to the
   exact original function objects, so the off path is byte-identical;
2. empirically — off → on → off: the paired A/B timer of
   ``repro.perf.harness`` times a block of steps right after an
   (untimed) sanitized block against a block of plain steps, and the
   residual (median paired ratio minus one, judged on the upper end of
   its bootstrap interval) stays under 2%;
3. informationally — the sanitizer-on slowdown is reported (it is
   allowed to be large; anomaly mode is a debugging tool).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import detect_anomalies
from repro.models import SequenceClassifier, build_backbone, default_config
from repro.nn import Adam, Tensor, cross_entropy
from repro.perf.harness import (build_report, failed_gates, paired,
                                write_report)

from _shared import OUT_DIR, emit, run_once

#: Steps per timed side: one step takes milliseconds, too short to
#: resolve a 2% budget against scheduler noise.
_STEPS = 20


def _make_steps():
    rng = np.random.default_rng(0)
    config = default_config("bert", vocab_size=120, d_model=32,
                            num_layers=2, num_heads=2, max_position=64,
                            dropout=0.0)
    model = SequenceClassifier(build_backbone(config, rng), config, rng)
    optimizer = Adam(model.parameters(), lr=1e-3)
    input_ids = rng.integers(0, config.vocab_size, size=(4, 16))
    labels = rng.integers(0, 2, size=4)

    def steps():
        for _ in range(_STEPS):
            optimizer.zero_grad()
            loss = cross_entropy(model(input_ids), labels)
            loss.backward()
            optimizer.step()
        return float(loss.item())

    def sanitized():
        # No parameters= audit here: the bench model legitimately leaves
        # its match-feature weights unused (no match_features input).
        with detect_anomalies(check_dead_leaves=False):
            return steps()

    return steps, sanitized


def test_sanitizer_off_overhead(benchmark):
    steps, sanitized = _make_steps()
    pristine_make = Tensor._make
    pristine_backward = Tensor.backward

    def measure():
        steps()  # warm allocator and code paths before timing
        return (paired(steps, steps, setup_b=sanitized),
                paired(steps, sanitized))

    residual, sanitizer_on = run_once(benchmark, measure)

    # Contract 1: leaving the context restores the exact fast-path
    # functions, so "off" is structurally zero-overhead.
    assert Tensor._make is pristine_make
    assert Tensor.backward is pristine_backward

    report = build_report(
        "sanitizer_overhead", smoke=False,
        config={"steps": _STEPS, "cycles": len(residual.ratios)},
        gates=[residual.gate("off_residual", 0.02, "ceiling",
                             shift=-1.0)],
        summary=[f"Sanitizer overhead ({len(residual.ratios)} paired "
                 f"cycles of {_STEPS} fine-tune steps)",
                 f"  on (debug anomaly mode): {sanitizer_on.median:.2f}x "
                 f"the off path (informational)"],
        residual=residual.as_dict(), sanitizer_on=sanitizer_on.as_dict())
    write_report(report, OUT_DIR / "sanitizer_overhead.json")
    emit("sanitizer_overhead", "\n".join(report["summary"]))
    # Contract 2: the off-path residual after anomaly mode stays < 2%.
    assert not failed_gates(report), report["summary"][-2]
