"""Serving: match streaming record pairs through the micro-batcher.

The paper evaluates matching offline in bulk, but a deployed matcher
receives pairs one at a time.  This example fine-tunes a small matcher,
then stands up the in-process :class:`repro.serve.MatchService` and
streams a Poisson workload through it:

1. fine-tune DistilBERT on dblp-acm at reduced scale (tiny settings, so
   the first run only takes a few minutes on CPU);
2. serve the same test pairs two ways — serial ``match_many`` versus a
   :class:`~repro.serve.MatchService` that coalesces concurrent
   requests into length-bucketed model batches;
3. show both paths agree decision for decision, then print the
   service's latency distribution and what its queue metrics recorded.

    python examples/serving_throughput.py
"""

from repro.data import load_benchmark, split_dataset
from repro.matching import EntityMatcher, FineTuneConfig
from repro.obs import LoggingCallback, MetricsRegistry
from repro.pretraining import ZooSettings
from repro.serve import (MatcherBackend, MatchService, ServeConfig,
                         generate_workload, run_simulation)
from repro.utils import child_rng


def main() -> None:
    print("Loading dblp-acm at reduced scale ...")
    data = load_benchmark("dblp-acm", seed=7, scale=0.05)
    splits = split_dataset(data, child_rng(7, "split"))

    print("Fine-tuning DistilBERT (tiny settings) ...")
    matcher = EntityMatcher(
        "distilbert",
        zoo_settings=ZooSettings(base_steps=25, base_examples=150,
                                 tokenizer_sentences=150, vocab_size=220,
                                 d_model=32, num_layers=2, num_heads=2,
                                 max_position=64, seq_len=32),
        finetune_config=FineTuneConfig(epochs=1, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(splits.train, splits.test,
                callbacks=LoggingCallback(
                    lambda message: print(f"  {message}")))

    pairs = [(pair.record_a, pair.record_b) for pair in splits.test]
    print(f"\nMatching {len(pairs)} pairs serially ...")
    serial = matcher.match_many(pairs, fast=True)

    print("Standing up the micro-batching service ...")
    registry = MetricsRegistry()
    service = MatchService(
        MatcherBackend(matcher, batch_size=32),
        ServeConfig(max_batch_size=32, max_wait_ms=10.0,
                    max_queue=max(64, len(pairs))),
        registry=registry)
    workload = generate_workload(pairs, num_requests=len(pairs),
                                 rate=200.0, seed=7, pattern="poisson")
    report = run_simulation(service, workload)

    agreements = sum(
        1 for outcome in serial
        if report.outcomes[outcome.index].matched == outcome.matched)
    print(f"\nService vs. serial decisions: {agreements}/{len(serial)} "
          f"agree")
    print(f"Completed {report.completed}/{report.offered} at "
          f"{report.throughput:.1f} req/s "
          f"(p50 {report.latency_quantile(0.5) * 1000:.1f} ms, "
          f"p95 {report.latency_quantile(0.95) * 1000:.1f} ms)")
    print(f"Batches formed: "
          f"{registry.histogram('serve.batch.size').count}, "
          f"mean size "
          f"{registry.histogram('serve.batch.size').mean:.1f}")


if __name__ == "__main__":
    main()
