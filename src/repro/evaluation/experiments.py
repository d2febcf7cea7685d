"""Experiment runner: the protocol behind every table and figure.

One place defines how a (architecture, dataset) cell is produced: generate
the benchmark at a scale, split 3:1:1, load the pre-trained checkpoint,
fine-tune with per-epoch test evaluation, average over runs.  Tables and
figures are views over :class:`CellResult` objects.

The paper's full protocol (Table 3 sizes, 15 epochs, 5 runs) is CPU-hours
in pure numpy; ``ExperimentScale`` makes the reduction explicit and
recordable in EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..baselines import DeepMatcher, DeepMatcherConfig, MagellanMatcher
from ..data import load_benchmark, split_dataset
from ..matching import FineTuneConfig, fine_tune
from ..obs import LoggingCallback
from ..pretraining import ZooSettings, get_pretrained
from ..utils import child_rng, spawn_seeds

__all__ = ["ExperimentScale", "CellResult", "BaselineResult",
           "run_transformer_cell", "run_baseline_cell", "ALL_ARCHS",
           "ALL_DATASETS"]

ALL_ARCHS = ("bert", "xlnet", "roberta", "distilbert")
ALL_DATASETS = ("abt-buy", "itunes-amazon", "walmart-amazon", "dblp-acm",
                "dblp-scholar")


@dataclass
class ExperimentScale:
    """How much of the paper's protocol to run.

    ``paper()`` documents the full protocol; ``bench()`` is the default
    reduced-but-faithful scale used by the benchmark harness; ``smoke()``
    is for tests.
    """

    dataset_scale: float = 0.12
    epochs: int = 6
    runs: int = 2
    batch_size: int = 16
    learning_rate: float = 5e-4
    max_length_cap: int = 64
    data_seed: int = 7
    run_seed: int = 11
    zoo_settings: ZooSettings | None = None
    zoo_dir: str | None = None
    # Completed (arch, dataset) cells are cached here so Table 5, Table 6
    # and Figures 10-14 share fine-tuning runs instead of recomputing.
    cache_dir: str | None = None

    def cell_key(self, arch: str, dataset: str) -> str:
        payload = {k: v for k, v in self.__dict__.items()
                   if k not in ("cache_dir", "zoo_dir")}
        payload["zoo_settings"] = (self.zoo_settings.__dict__
                                   if self.zoo_settings else None)
        payload["arch"] = arch
        payload["dataset"] = dataset
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @staticmethod
    def paper() -> "ExperimentScale":
        return ExperimentScale(dataset_scale=1.0, epochs=15, runs=5)

    @staticmethod
    def bench() -> "ExperimentScale":
        """The default reduced protocol used by the benchmark harness.

        Overridable via environment variables (REPRO_BENCH_SCALE,
        REPRO_BENCH_EPOCHS, REPRO_BENCH_RUNS) so a user with CPU-hours
        to spare can approach the paper protocol without editing code.
        """
        return ExperimentScale(
            dataset_scale=float(os.environ.get("REPRO_BENCH_SCALE", 0.1)),
            epochs=int(os.environ.get("REPRO_BENCH_EPOCHS", 5)),
            runs=int(os.environ.get("REPRO_BENCH_RUNS", 1)),
            cache_dir=os.environ.get("REPRO_BENCH_CACHE",
                                     ".bench_cache"))

    @staticmethod
    def smoke() -> "ExperimentScale":
        return ExperimentScale(dataset_scale=0.04, epochs=2, runs=1)


@dataclass
class CellResult:
    """Averaged fine-tuning outcome of one (arch, dataset) cell."""

    arch: str
    dataset: str
    f1_curves: list[list[float]] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def mean_curve(self) -> list[float]:
        """Per-epoch F1 averaged over runs (index 0 = zero-shot)."""
        lengths = {len(c) for c in self.f1_curves}
        if len(lengths) != 1:
            raise ValueError("runs have inconsistent epoch counts")
        return [float(np.mean([c[i] for c in self.f1_curves]))
                for i in range(lengths.pop())]

    @property
    def best_f1(self) -> float:
        return max(self.mean_curve)

    @property
    def final_f1(self) -> float:
        return self.mean_curve[-1]

    @property
    def mean_epoch_seconds(self) -> float:
        return float(np.mean(self.epoch_seconds))


@dataclass
class BaselineResult:
    """Outcome of the Magellan and DeepMatcher baselines on a dataset."""

    dataset: str
    magellan_f1: float
    deepmatcher_f1: float
    magellan_learner: str
    deepmatcher_variant: str
    deepmatcher_epoch_seconds: float


def _load_splits(dataset: str, scale: ExperimentScale):
    data = load_benchmark(dataset, seed=scale.data_seed,
                          scale=scale.dataset_scale)
    return split_dataset(data, child_rng(scale.data_seed, "split", dataset))


def run_transformer_cell(arch: str, dataset: str,
                         scale: ExperimentScale | None = None,
                         log=None) -> CellResult:
    """Fine-tune ``arch`` on ``dataset`` for ``runs`` seeds; collect curves.

    Results are cached under ``scale.cache_dir`` (if set) keyed by every
    protocol parameter, so tables and figures sharing a cell reuse it.
    """
    scale = scale or ExperimentScale.bench()
    cache_path = None
    if scale.cache_dir:
        cache_path = (Path(scale.cache_dir)
                      / f"cell-{arch}-{dataset}-"
                        f"{scale.cell_key(arch, dataset)}.json")
        if cache_path.exists():
            payload = json.loads(cache_path.read_text())
            return CellResult(arch=arch, dataset=dataset,
                              f1_curves=payload["f1_curves"],
                              epoch_seconds=payload["epoch_seconds"])
    splits = _load_splits(dataset, scale)
    pretrained = get_pretrained(arch, seed=0, settings=scale.zoo_settings,
                                zoo_dir=scale.zoo_dir)
    config = FineTuneConfig(
        epochs=scale.epochs, batch_size=scale.batch_size,
        learning_rate=scale.learning_rate,
        max_length_cap=scale.max_length_cap)
    result = CellResult(arch=arch, dataset=dataset)
    for run_seed in spawn_seeds(scale.run_seed, scale.runs):
        run = fine_tune(pretrained, splits.train, splits.test,
                        config=config, seed=run_seed,
                        callbacks=(LoggingCallback(log) if log is not None
                                   else None))
        result.f1_curves.append([f * 100.0 for f in run.f1_curve()])
        result.epoch_seconds.extend(run.epoch_seconds())
    if cache_path is not None:
        from ..utils import atomic_write_text
        atomic_write_text(cache_path, json.dumps({
            "f1_curves": result.f1_curves,
            "epoch_seconds": result.epoch_seconds,
        }))
    return result


def run_baseline_cell(dataset: str,
                      scale: ExperimentScale | None = None
                      ) -> BaselineResult:
    """Run Magellan and DeepMatcher on a dataset at the given scale."""
    scale = scale or ExperimentScale.bench()
    splits = _load_splits(dataset, scale)
    magellan = MagellanMatcher(seed=scale.run_seed).run(
        splits.train, splits.validation, splits.test)
    config = DeepMatcherConfig(epochs=max(scale.epochs, 8))
    deepmatcher = DeepMatcher(config, seed=scale.run_seed).run(
        splits.train, splits.validation, splits.test)
    return BaselineResult(
        dataset=dataset,
        magellan_f1=magellan.test_metrics.f1 * 100.0,
        deepmatcher_f1=deepmatcher.test_metrics.f1 * 100.0,
        magellan_learner=magellan.chosen_learner,
        deepmatcher_variant=deepmatcher.chosen_variant,
        deepmatcher_epoch_seconds=float(np.mean(
            list(deepmatcher.epoch_seconds.values()))),
    )
