"""Quickstart: fine-tune a pre-trained transformer for entity matching.

Mirrors the paper's pipeline end to end:

1. load a benchmark dataset (Walmart-Amazon, dirty variant, reduced scale);
2. split 3:1:1 into train/validation/test;
3. fine-tune a pre-trained RoBERTa with the high-level EntityMatcher API;
4. evaluate F1 on the test split and match one ad-hoc record pair.

First run pre-trains and caches the RoBERTa checkpoint (a few minutes of
CPU); subsequent runs load it instantly.

    python examples/quickstart.py
"""

from repro.data import load_benchmark, split_dataset
from repro.matching import EntityMatcher, FineTuneConfig
from repro.obs import LoggingCallback
from repro.utils import child_rng


def main() -> None:
    print("Loading Walmart-Amazon (dirty) at reduced scale ...")
    data = load_benchmark("walmart-amazon", seed=7, scale=0.08)
    splits = split_dataset(data, child_rng(7, "split"))
    stats = data.stats()
    print(f"  {stats.size} candidate pairs, {stats.num_matches} matches, "
          f"{stats.num_attributes} attributes")

    print("Fine-tuning RoBERTa (pre-trained checkpoint from the zoo) ...")
    matcher = EntityMatcher(
        "roberta", finetune_config=FineTuneConfig(epochs=4))
    matcher.fit(splits.train, splits.test,
                callbacks=LoggingCallback(
                    lambda message: print(f"  {message}")))

    metrics = matcher.evaluate(splits.test).as_percent()
    print(f"\nTest F1 {metrics.f1:.1f}  "
          f"(precision {metrics.precision:.1f}, recall {metrics.recall:.1f})")

    record_a = {"title": "apexon phone zx4821 black", "category": "phone",
                "brand": "apexon", "modelno": "zx4821", "price": "499.00"}
    record_b = {"title": "apexon smartphone ZX 4821", "category": "phone",
                "brand": "", "modelno": "zx-4821", "price": "$ 499.00"}
    record_c = {"title": "apexon smartphone zx7733 white", "category": "phone",
                "brand": "apexon", "modelno": "zx7733", "price": "259.00"}
    p_match = matcher.match_probability(record_a, record_b)
    p_nonmatch = matcher.match_probability(record_a, record_c)
    print(f"\nSame product, different feeds : P(match) = {p_match:.2f}")
    print(f"Different model number        : P(match) = {p_nonmatch:.2f}")


if __name__ == "__main__":
    main()
