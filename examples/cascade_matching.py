"""Calibrate and serve the DistilBERT→RoBERTa cascade.

The paper's Table 5 ordering — DistilBERT fastest but weakest, RoBERTa
slowest but best — is exactly the shape a confidence cascade exploits:
let the cheap model decide every pair it is sure about and reserve the
expensive model for the ambiguous band.  This example walks the whole
cascade pipeline end to end:

1. fine-tune DistilBERT and RoBERTa on dblp-acm at reduced scale (tiny
   settings, so the first run takes seconds on CPU);
2. calibrate the ambiguity band on the validation split and time the
   cascade against serial RoBERTa on the test pairs;
3. stand the cascade up behind a :class:`repro.serve.MatchService` and
   show the ``cascade.*`` escalation telemetry it records.

    python examples/cascade_matching.py
"""

import time

from repro.data import load_benchmark, split_dataset
from repro.matching import (EntityMatcher, FineTuneConfig, build_cascade,
                            evaluate_predictions)
from repro.obs import LoggingCallback, MetricsRegistry
from repro.pretraining import ZooSettings
from repro.serve import CascadeBackend, MatchService, ServeConfig
from repro.utils import child_rng

TINY = ZooSettings(base_steps=25, base_examples=150,
                   tokenizer_sentences=150, vocab_size=220,
                   d_model=32, num_layers=2, num_heads=2,
                   max_position=64, seq_len=32)


def fitted(arch: str, splits) -> EntityMatcher:
    print(f"Fine-tuning {arch} (tiny settings) ...")
    matcher = EntityMatcher(
        arch, zoo_settings=TINY,
        finetune_config=FineTuneConfig(epochs=3, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(splits.train, splits.validation,
                callbacks=LoggingCallback(
                    lambda message: print(f"  {message}")))
    return matcher


def main() -> None:
    print("Loading dblp-acm at reduced scale ...")
    data = load_benchmark("dblp-acm", seed=7, scale=0.05)
    splits = split_dataset(data, child_rng(7, "split"))

    primary = fitted("distilbert", splits)
    secondary = fitted("roberta", splits)

    print("\nCalibrating the ambiguity band on the validation split ...")
    registry = MetricsRegistry()
    cascade = build_cascade(primary, secondary, splits.validation,
                            registry=registry)
    band = cascade.calibration
    print(f"  band [{band.lo:.3f}, {band.hi:.3f}] escalates "
          f"{band.escalation_rate * 100.0:.1f}% of validation pairs "
          f"(cascade F1 {band.f1:.3f} vs secondary "
          f"{band.secondary_f1:.3f})")

    test_pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    labels = splits.test.labels()

    print(f"\nMatching {len(test_pairs)} test pairs ...")
    start = time.perf_counter()
    reference = secondary.match_many(test_pairs, fast=False)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    outcomes = cascade.score_pairs(test_pairs, fallback=False)
    cascade_seconds = time.perf_counter() - start

    f1_secondary = evaluate_predictions(
        labels, [o.matched for o in reference]).f1
    f1_cascade = evaluate_predictions(
        labels, [o.matched for o in outcomes]).f1
    print(f"  serial RoBERTa: "
          f"{len(test_pairs) / serial_seconds:8.1f} pairs/sec  "
          f"F1 {f1_secondary:.3f}")
    print(f"  cascade:        "
          f"{len(test_pairs) / cascade_seconds:8.1f} pairs/sec  "
          f"F1 {f1_cascade:.3f}  "
          f"({serial_seconds / cascade_seconds:.2f}x, escalation "
          f"{cascade.last_escalation_rate() * 100.0:.1f}%)")

    print("\nServing the cascade through the micro-batcher ...")
    service = MatchService(
        CascadeBackend(cascade),
        ServeConfig(max_batch_size=32, max_wait_ms=5.0,
                    max_queue=len(test_pairs)),
        registry=registry)
    with service:
        tickets = service.submit_many(test_pairs)
        served = [ticket.result(timeout=120.0) for ticket in tickets]
    agree = sum(1 for a, b in zip(served, outcomes)
                if a.matched == b.matched)
    print(f"  {agree}/{len(served)} served decisions agree with the "
          f"bulk cascade")
    for name in ("cascade.pairs", "cascade.escalated.pairs"):
        print(f"  {name} = "
              f"{registry.counter(name).snapshot()['value']:.0f}")


if __name__ == "__main__":
    main()
