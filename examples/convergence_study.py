"""Scenario: how much fine-tuning does a pre-trained transformer need?

Reproduces the paper's §5.4 analysis on one dataset: the zero-shot point
(no fine-tuning at all), the per-epoch F1 curve, and the derived
convergence summary — plus the same curve for a from-scratch model, which
is the paper's implicit ablation ("pre-training is what makes 1-3 epochs
enough").

    python examples/convergence_study.py
"""

from repro.data import load_benchmark, split_dataset
from repro.evaluation import CellResult, analyze_convergence
from repro.matching import FineTuneConfig, fine_tune
from repro.models import build_backbone
from repro.obs import LoggingCallback
from repro.pretraining import PretrainedModel, get_pretrained
from repro.utils import child_rng, format_series


def main() -> None:
    data = load_benchmark("dblp-acm", seed=7, scale=0.08)
    splits = split_dataset(data, child_rng(7, "split"))
    config = FineTuneConfig(epochs=6)

    print("Fine-tuning the pre-trained BERT checkpoint ...")
    pretrained = get_pretrained("bert", seed=0)
    tuned = fine_tune(pretrained, splits.train, splits.test, config,
                      seed=1,
                      callbacks=LoggingCallback(lambda m: print(f"  {m}")))

    print("\nFine-tuning the same architecture from random init ...")
    scratch_backbone = build_backbone(pretrained.config,
                                      child_rng(1, "scratch"))
    scratch_backbone.special_token_ids = \
        pretrained.tokenizer.vocab.special_ids()
    scratch = PretrainedModel("bert", pretrained.config, scratch_backbone,
                              pretrained.tokenizer, from_cache=False)
    untuned = fine_tune(scratch, splits.train, splits.test, config, seed=1)

    pre_curve = [f * 100 for f in tuned.f1_curve()]
    raw_curve = [f * 100 for f in untuned.f1_curve()]
    print("\n" + format_series("pre-trained ", pre_curve))
    print(format_series("from-scratch", raw_curve))

    summary = analyze_convergence(
        CellResult("bert", data.name, f1_curves=[pre_curve]))
    print(f"\nzero-shot F1          : {summary.zero_shot_f1:.1f}")
    print(f"peak F1               : {summary.peak_f1:.1f}")
    print(f"epochs to within 5pts : {summary.epochs_to_within_5pct}")
    print(f"converged at epoch    : {summary.convergence_epoch}")
    print(f"\npre-training advantage at epoch 1: "
          f"{pre_curve[1] - raw_curve[1]:+.1f} F1 points")


if __name__ == "__main__":
    main()
