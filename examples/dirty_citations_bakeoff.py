"""Scenario: deduplicating dirty bibliographic data, three ways.

DBLP-Scholar-style citation records whose attribute values migrated into
the title field (the "dirty" corruption of Mudgal et al.).  All three
systems the paper compares run on the same splits:

* Magellan  — attribute-aligned similarity features + classical learner;
* DeepMatcher — word embeddings + RNN/attention, trained from scratch;
* a fine-tuned transformer (paper's approach).

The point of the exercise is the paper's Table 5 row: structure
destruction hurts the attribute-aligned baseline most.

    python examples/dirty_citations_bakeoff.py
"""

from repro.baselines import DeepMatcher, DeepMatcherConfig, MagellanMatcher
from repro.data import load_benchmark, split_dataset
from repro.matching import EntityMatcher, FineTuneConfig
from repro.obs import trace
from repro.utils import child_rng, format_table


def main() -> None:
    print("Generating DBLP-Scholar (dirty) at reduced scale ...")
    data = load_benchmark("dblp-scholar", seed=21, scale=0.04)
    splits = split_dataset(data, child_rng(21, "split"))

    example = next(pair for pair in splits.test.pairs if pair.label == 1)
    print("A matching pair after the dirty transform:")
    print(f"  A: {example.record_a.values}")
    print(f"  B: {example.record_b.values}\n")

    rows = []

    with trace("magellan") as span:
        magellan = MagellanMatcher(seed=0).run(
            splits.train, splits.validation, splits.test)
    rows.append(["Magellan", magellan.chosen_learner,
                 f"{magellan.test_metrics.f1 * 100:.1f}",
                 f"{span.duration:.0f}s"])

    with trace("deepmatcher") as span:
        deepmatcher = DeepMatcher(DeepMatcherConfig(epochs=6),
                                  seed=0).run(
            splits.train, splits.validation, splits.test)
    rows.append(["DeepMatcher", deepmatcher.chosen_variant,
                 f"{deepmatcher.test_metrics.f1 * 100:.1f}",
                 f"{span.duration:.0f}s"])

    with trace("transformer") as span:
        matcher = EntityMatcher(
            "roberta", finetune_config=FineTuneConfig(epochs=4))
        matcher.fit(splits.train, splits.test)
        transformer = matcher.evaluate(splits.test)
    rows.append(["Transformer", "roberta",
                 f"{transformer.f1 * 100:.1f}", f"{span.duration:.0f}s"])

    print(format_table(["System", "selected model", "test F1", "time"],
                       rows, title="Dirty-citation bake-off"))


if __name__ == "__main__":
    main()
