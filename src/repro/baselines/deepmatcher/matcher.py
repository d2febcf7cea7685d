"""Training/evaluation driver for the DeepMatcher baseline.

Mirrors the original protocol: train each variant from scratch on the
dataset, select the best on validation F1, report test F1 (the EDBT paper
also reports "the best performing of the four DeepMatcher DL models").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ...data import EMDataset
from ...matching.metrics import MatchingMetrics, evaluate_predictions
from ...nn import Adam, clip_grad_norm, cross_entropy, no_grad
from ...obs import CallbackList, trace
from ..magellan.matcher import _best_threshold
from ...utils import child_rng
from .model import DeepMatcherModel, VARIANTS
from .vocab import WordVocab

__all__ = ["DeepMatcherConfig", "DeepMatcherResult", "DeepMatcher"]


@dataclass
class DeepMatcherConfig:
    epochs: int = 12
    batch_size: int = 16
    learning_rate: float = 1e-3
    embed_dim: int = 48
    hidden: int = 32
    max_length: int = 32
    grad_clip: float = 2.0
    variants: tuple[str, ...] = VARIANTS
    # DeepMatcher ships with pre-trained fastText vectors; our stand-in is
    # skip-gram trained on the synthetic corpus (see embeddings.py).
    use_pretrained_embeddings: bool = True


@dataclass
class DeepMatcherResult:
    chosen_variant: str
    validation_f1: float
    test_metrics: MatchingMetrics
    epoch_seconds: dict[str, float] = field(default_factory=dict)


class _Encoded:
    def __init__(self, dataset: EMDataset, vocab: WordVocab,
                 max_length: int):
        attributes = dataset.serialization_attributes()
        ids_a, ids_b = [], []
        for pair in dataset.pairs:
            ids_a.append(vocab.encode(
                pair.record_a.text_blob(attributes), max_length))
            ids_b.append(vocab.encode(
                pair.record_b.text_blob(attributes), max_length))
        self.ids_a = np.stack(ids_a)
        self.ids_b = np.stack(ids_b)
        self.pad_a = self.ids_a == vocab.pad_id
        self.pad_b = self.ids_b == vocab.pad_id
        self.labels = np.asarray(dataset.labels())

    def __len__(self) -> int:
        return len(self.labels)


class DeepMatcher:
    """Best-of-four-variants DeepMatcher baseline."""

    def __init__(self, config: DeepMatcherConfig | None = None,
                 seed: int = 0, callbacks=None):
        self.config = config or DeepMatcherConfig()
        self.seed = seed
        self._callbacks = CallbackList.resolve(callbacks)
        self._vocab: WordVocab | None = None
        self._model: DeepMatcherModel | None = None
        self._threshold: float = 0.5
        self.chosen_variant: str | None = None
        self.epoch_seconds: dict[str, float] = {}

    def _train_variant(self, variant: str, train: _Encoded,
                       rng: np.random.Generator) -> DeepMatcherModel:
        model = DeepMatcherModel(len(self._vocab), variant, rng,
                                 embed_dim=self.config.embed_dim,
                                 hidden=self.config.hidden,
                                 embedding_matrix=self._embedding_matrix)
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        positives = max(train.labels.sum(), 1)
        negatives = max(len(train) - positives, 1)
        class_weights = np.array([1.0, negatives / positives])
        n = len(train)
        batch = self.config.batch_size
        cb = self._callbacks
        seconds = []
        global_step = 0
        for epoch in range(1, self.config.epochs + 1):
            order = rng.permutation(n)
            losses = []
            with trace("deepmatcher-epoch", variant=variant,
                       epoch=epoch) as span:
                starts = list(range(0, n - batch + 1, batch)) or [0]
                for start in starts:
                    step_t0 = time.perf_counter() if cb else 0.0
                    idx = order[start:start + batch]
                    optimizer.zero_grad()
                    logits = model(train.ids_a[idx], train.ids_b[idx],
                                   train.pad_a[idx], train.pad_b[idx])
                    loss = cross_entropy(logits, train.labels[idx],
                                         class_weights=class_weights)
                    loss.backward()
                    grad_norm = clip_grad_norm(model.parameters(),
                                               self.config.grad_clip)
                    optimizer.step()
                    losses.append(float(loss.data))
                    if cb:
                        elapsed = time.perf_counter() - step_t0
                        cb.on_step({
                            "phase": "deepmatcher", "variant": variant,
                            "step": global_step, "epoch": epoch,
                            "loss": losses[-1], "lr": optimizer.lr,
                            "grad_norm": grad_norm, "seconds": elapsed,
                            "examples_per_sec":
                                len(idx) / max(elapsed, 1e-9)})
                    global_step += 1
            seconds.append(span.duration)
            if cb:
                cb.on_epoch_end({
                    "phase": "deepmatcher", "variant": variant,
                    "epoch": epoch, "train_loss": float(np.mean(losses)),
                    "seconds": span.duration})
        self.epoch_seconds[variant] = float(np.mean(seconds))
        return model

    def _proba_encoded(self, model: DeepMatcherModel,
                       data: _Encoded) -> np.ndarray:
        model.eval()
        outputs = []
        with no_grad():
            for start in range(0, len(data), 64):
                idx = np.arange(start, min(start + 64, len(data)))
                logits = model(data.ids_a[idx], data.ids_b[idx],
                               data.pad_a[idx], data.pad_b[idx])
                outputs.append(logits.softmax(axis=-1).numpy()[:, 1])
        model.train()
        return np.concatenate(outputs) if outputs else np.array([])

    def fit(self, train: EMDataset,
            validation: EMDataset | None = None) -> "DeepMatcher":
        self._vocab = WordVocab.build(train)
        self._embedding_matrix = None
        if self.config.use_pretrained_embeddings:
            from .embeddings import get_word_embeddings
            embeddings = get_word_embeddings(seed=0,
                                             dim=self.config.embed_dim)
            self._embedding_matrix = embeddings.build_matrix(
                self._vocab, child_rng(self.seed, "dm-embed"))
        encoded_train = _Encoded(train, self._vocab,
                                 self.config.max_length)
        encoded_val = (_Encoded(validation, self._vocab,
                                self.config.max_length)
                       if validation is not None and len(validation)
                       else encoded_train)
        cb = self._callbacks
        if cb:
            cb.on_train_begin({
                "phase": "deepmatcher", "epochs": self.config.epochs,
                "batch_size": self.config.batch_size,
                "variants": list(self.config.variants),
                "train_size": len(encoded_train)})
        best = (-1.0, None, None, 0.5)
        for variant in self.config.variants:
            rng = child_rng(self.seed, "deepmatcher", variant)
            model = self._train_variant(variant, encoded_train, rng)
            with trace("deepmatcher-eval", variant=variant):
                probabilities = self._proba_encoded(model, encoded_val)
                threshold, f1 = _best_threshold(encoded_val.labels,
                                                probabilities)
            if cb:
                cb.on_eval({"phase": "deepmatcher", "variant": variant,
                            "epoch": self.config.epochs, "f1": f1})
            if f1 > best[0]:
                best = (f1, variant, model, threshold)
        self._validation_f1, self.chosen_variant = best[0], best[1]
        self._model, self._threshold = best[2], best[3]
        if cb:
            cb.on_train_end({"phase": "deepmatcher",
                             "chosen_variant": self.chosen_variant,
                             "validation_f1": self._validation_f1})
        return self

    def predict_proba(self, dataset: EMDataset) -> np.ndarray:
        """Per-pair match probability, shape ``(len(dataset),)``.

        The raw scores behind :meth:`predict`; exposed so the serving
        layer (:class:`repro.serve.DeepMatcherBackend`) can run the
        baseline as a cheap request-scoring backend.
        """
        if self._model is None:
            raise RuntimeError("fit() before predict")
        encoded = _Encoded(dataset, self._vocab, self.config.max_length)
        return self._proba_encoded(self._model, encoded)

    @property
    def threshold(self) -> float:
        """The validation-F1-optimal decision threshold chosen by fit()."""
        return self._threshold

    def predict(self, dataset: EMDataset) -> np.ndarray:
        probabilities = self.predict_proba(dataset)
        return (probabilities >= self._threshold).astype(int)

    def evaluate(self, dataset: EMDataset) -> MatchingMetrics:
        predictions = self.predict(dataset)
        return evaluate_predictions(np.asarray(dataset.labels()),
                                    predictions)

    def run(self, train: EMDataset, validation: EMDataset,
            test: EMDataset) -> DeepMatcherResult:
        self.fit(train, validation)
        return DeepMatcherResult(
            chosen_variant=self.chosen_variant,
            validation_f1=self._validation_f1,
            test_metrics=self.evaluate(test),
            epoch_seconds=dict(self.epoch_seconds),
        )
