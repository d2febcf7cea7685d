"""The performance benchmark behind ``repro bench perf``.

Measures ``match_many`` throughput for every architecture on one
workload, each comparison through the paired A/B timer of
:mod:`repro.perf.harness`:

* **fast vs. serial** — length-bucketed batches against serial per-pair
  matching, through the same tape-off forward; before each side the
  tokenizer memo forgets every text, so both tokenize every record.
  The speedup floor is judged on the lower end of the bootstrap
  interval of the median paired ratio, and every pair's decision must
  agree between paths;
* **cascade vs. RoBERTa serial** — DistilBERT screens every pair and
  escalates the ambiguous band to RoBERTa; the aggregate speedup over
  the RoBERTa serial path is gated at 4×, with cascade F1 within
  tolerance of RoBERTa-only.

The report goes to ``BENCH_perf.json``.

Imports from ``repro.matching`` stay inside the functions: the matching
layer imports ``repro.perf`` for its scheduling/caching primitives, so a
module-level import here would be circular.
"""

from __future__ import annotations

import statistics

from . import harness
from .harness import Gate

__all__ = ["run_perf_benchmark", "DEFAULT_ARCHS"]

DEFAULT_ARCHS = ("bert", "roberta", "distilbert", "xlnet")

#: Fast-path speedup floors.  BERT keeps the historical 2.0 gate;
#: XLNet's two-stream attention leaves less fusable work so its floor
#: is lower.
ARCH_SPEEDUP_FLOORS = {"bert": 2.0, "roberta": 1.8, "distilbert": 1.8,
                       "xlnet": 1.5}
#: Cascade pairs/sec over the RoBERTa serial path.
CASCADE_SPEEDUP_FLOOR = 4.0
#: How far cascade F1 may trail RoBERTa-only F1.
F1_TOLERANCE = 0.005
#: The cascade's cheap and strong models.
PRIMARY, SECONDARY = "distilbert", "roberta"


def _rate(pairs: int, seconds) -> float:
    return pairs / max(statistics.median(seconds), 1e-9)


def _bench_arch(arch: str, matcher, pairs, batch_size: int, cycles: int,
                gates: list[Gate]) -> dict:
    from ..obs import default_registry
    memo = matcher.pretrained.tokenizer.memo
    timing = harness.paired(
        lambda: matcher.match_many(pairs, fast=True,
                                   batch_size=batch_size),
        lambda: matcher.match_many(pairs, fast=False),
        cycles=cycles, setup_a=memo.clear, setup_b=memo.clear)
    fast, baseline = timing.a_result, timing.b_result
    agreement = sum(x.matched == y.matched
                    for x, y in zip(baseline, fast)) / max(len(pairs), 1)
    gates += [timing.gate(f"{arch}.speedup",
                          ARCH_SPEEDUP_FLOORS.get(arch, 1.0)),
              Gate(f"{arch}.decision_agreement", agreement, 1.0)]
    registry = default_registry()
    n = len(pairs)
    return {
        "pairs": n,
        "timing": timing.as_dict(),
        "baseline_pairs_per_sec": _rate(n, timing.b_seconds),
        "fast_pairs_per_sec": _rate(n, timing.a_seconds),
        "speedup": timing.median,
        "phases": {
            "encode_seconds":
                registry.gauge("perf.match.encode_seconds").value,
            "forward_seconds":
                registry.gauge("perf.match.forward_seconds").value,
        },
        "cache": {"hits": int(memo.hits), "misses": int(memo.misses),
                  "hit_rate": memo.hit_rate},
        "decision_agreement": agreement,
    }


def _bench_cascade(primary, secondary, splits, pairs, batch_size: int,
                   cycles: int, gates: list[Gate]) -> dict:
    """Calibrate the ambiguity band and time the two-model cascade."""
    from ..matching import build_cascade, evaluate_predictions
    cascade = build_cascade(primary, secondary, splits.validation,
                            tolerance=F1_TOLERANCE,
                            batch_size=batch_size)
    band = cascade.calibration

    test_pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    labels = splits.test.labels()
    outcomes = cascade.score_pairs(test_pairs, fallback=False,
                                   batch_size=batch_size)
    f1_cascade = evaluate_predictions(
        labels, [o.matched for o in outcomes]).f1
    reference = secondary.engine().score_pairs(test_pairs, fallback=False,
                                               batch_size=batch_size)
    f1_secondary = evaluate_predictions(
        labels, [o.matched for o in reference]).f1

    cold_secondary = secondary.pretrained.tokenizer.memo.clear

    def cold_both():
        primary.pretrained.tokenizer.memo.clear()
        cold_secondary()

    timing = harness.paired(
        lambda: cascade.score_pairs(pairs, fallback=False,
                                    batch_size=batch_size),
        lambda: secondary.match_many(pairs, fast=False),
        cycles=cycles, setup_a=cold_both, setup_b=cold_secondary)
    escalation_rate = cascade.last_escalation_rate()
    delta = f1_cascade - f1_secondary
    gates += [timing.gate("cascade.aggregate_speedup",
                          CASCADE_SPEEDUP_FLOOR),
              Gate("cascade.f1_delta", delta, -F1_TOLERANCE)]
    n = len(pairs)
    return {
        "primary": PRIMARY,
        "secondary": SECONDARY,
        "band": {"lo": band.lo, "hi": band.hi,
                 "validation_escalation_rate": band.escalation_rate},
        "pairs": n,
        "timing": timing.as_dict(),
        "pairs_per_sec": _rate(n, timing.a_seconds),
        "baseline_pairs_per_sec": _rate(n, timing.b_seconds),
        "aggregate_speedup": timing.median,
        "escalation_rate": escalation_rate,
        "f1": {"cascade": f1_cascade, "secondary": f1_secondary,
               "delta": delta},
    }


def _summary(config: dict, architectures: dict,
             cascade: dict | None) -> list[str]:
    lines = [f"match_many throughput ({config['pairs']} pairs, batch "
             f"size {config['batch_size']}, {config['cycles']} paired "
             f"cycles)"]
    for arch, entry in architectures.items():
        low, high = entry["timing"]["interval"]
        lines.append(
            f"  {arch:<10} {entry['baseline_pairs_per_sec']:8.1f} -> "
            f"{entry['fast_pairs_per_sec']:8.1f} pairs/s  "
            f"({entry['speedup']:.2f}x [{low:.2f}, {high:.2f}], cache "
            f"hit rate {entry['cache']['hit_rate']:.2f}, decision "
            f"agreement {entry['decision_agreement']:.3f})")
    if cascade:
        band = cascade["band"]
        low, high = cascade["timing"]["interval"]
        lines.append(
            f"  cascade {cascade['primary']} -> {cascade['secondary']}: "
            f"{cascade['pairs_per_sec']:.1f} pairs/s, "
            f"{cascade['aggregate_speedup']:.2f}x [{low:.2f}, "
            f"{high:.2f}] over {cascade['secondary']} serial, band "
            f"[{band['lo']:.3f}, {band['hi']:.3f}], escalation "
            f"{cascade['escalation_rate'] * 100.0:.1f}%, F1 "
            f"{cascade['f1']['cascade']:.3f} vs "
            f"{cascade['f1']['secondary']:.3f}")
    return lines


def run_perf_benchmark(archs=DEFAULT_ARCHS, num_pairs: int = 200,
                       seed: int = 0, zoo_dir=None, batch_size: int = 64,
                       smoke: bool = False) -> dict:
    """Run the benchmark and return the report dict (see module doc)."""
    if smoke:
        num_pairs = min(num_pairs, 24)
    cycles = harness.cycles_for(smoke)
    splits, pairs = harness.build_workload(num_pairs, seed)
    gates: list[Gate] = []
    architectures = {}
    matchers = {}
    for arch in archs:
        matcher = harness.fit_matcher(arch, splits, seed, zoo_dir)
        matchers[arch] = matcher
        architectures[arch] = _bench_arch(arch, matcher, pairs,
                                          batch_size, cycles, gates)
    cascade = None
    if PRIMARY in matchers and SECONDARY in matchers:
        cascade = _bench_cascade(matchers[PRIMARY], matchers[SECONDARY],
                                 splits, pairs, batch_size, cycles, gates)
    config = {"archs": list(archs), "pairs": num_pairs, "seed": seed,
              "batch_size": batch_size, "cycles": cycles}
    return harness.build_report(
        "perf", smoke=smoke, config=config, gates=gates,
        summary=_summary(config, architectures, cascade),
        architectures=architectures, cascade=cascade)
