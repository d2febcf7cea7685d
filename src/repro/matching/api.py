"""High-level entity-matching API.

The one-stop interface a downstream user adopts::

    from repro.matching import EntityMatcher

    matcher = EntityMatcher("roberta")
    matcher.fit(train_dataset)
    metrics = matcher.evaluate(test_dataset)
    label = matcher.match({"title": "apexon phone x1"},
                          {"title": "apexon smartphone x-1"})
"""

from __future__ import annotations

import numpy as np

from ..data import EMDataset, EntityPair, Record
from ..models import ARCHITECTURES
from ..nn import no_grad
from ..obs import CallbackList
from ..pretraining import PretrainedModel, ZooSettings, get_pretrained
from ..resilience import MatchOutcome, ResilienceConfig
from .engine import MatchEngine
from .finetune import FineTuneConfig, FineTuneResult, fine_tune
from .metrics import MatchingMetrics
from .serializer import (encode_dataset, iter_bucketed, pair_texts,
                         uniform_cls_index)

__all__ = ["EntityMatcher"]


class EntityMatcher:
    """Fine-tunable transformer entity matcher.

    Parameters
    ----------
    arch:
        One of ``bert``, ``roberta``, ``distilbert``, ``xlnet``.
    pretrained:
        An already-loaded :class:`PretrainedModel`; if omitted, the model
        zoo provides (and caches) one.
    seed:
        Controls pre-training lookup and fine-tuning shuffling/dropout.
    """

    def __init__(self, arch: str = "roberta",
                 pretrained: PretrainedModel | None = None,
                 seed: int = 0,
                 zoo_settings: ZooSettings | None = None,
                 zoo_dir=None,
                 finetune_config: FineTuneConfig | None = None):
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}; "
                             f"expected one of {ARCHITECTURES}")
        self.arch = arch
        self.seed = seed
        self.finetune_config = finetune_config or FineTuneConfig()
        self._pretrained = pretrained
        self._zoo_settings = zoo_settings
        self._zoo_dir = zoo_dir
        self._result: FineTuneResult | None = None
        self._schema: list[str] | None = None
        self._text_attributes: list[str] | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def pretrained(self) -> PretrainedModel:
        if self._pretrained is None:
            self._pretrained = get_pretrained(
                self.arch, seed=self.seed, settings=self._zoo_settings,
                zoo_dir=self._zoo_dir)
        return self._pretrained

    @property
    def is_fitted(self) -> bool:
        return self._result is not None

    def fit(self, train: EMDataset, test: EMDataset | None = None,
            callbacks=None,
            resilience: ResilienceConfig | None = None) -> FineTuneResult:
        """Fine-tune on ``train``; track per-epoch F1 on ``test`` if given
        (otherwise on a slice of the training data).

        ``callbacks`` takes :class:`repro.obs.Callback` instances
        (:class:`repro.obs.LoggingCallback` prints progress lines).
        ``resilience`` opts into checkpoint/resume and divergence
        rollback (see :class:`repro.resilience.ResilienceConfig`).
        """
        eval_set = test if test is not None else train[: max(len(train) // 5, 1)]
        self._schema = list(train.schema)
        self._text_attributes = train.text_attributes
        self._result = fine_tune(self.pretrained, train, eval_set,
                                 config=self.finetune_config,
                                 seed=self.seed, callbacks=callbacks,
                                 resilience=resilience)
        return self._result

    # -- inference --------------------------------------------------------------

    def _require_fitted(self) -> FineTuneResult:
        if self._result is None:
            raise RuntimeError("call fit() before predicting")
        return self._result

    def predict(self, dataset: EMDataset,
                batch_size: int = 64) -> np.ndarray:
        """Binary match predictions for every pair of ``dataset``.

        Batches are length-bucketed (see
        :func:`repro.matching.serializer.iter_bucketed`): sequences run
        sorted by real token count and right-padded batches are trimmed
        to their own longest member, so the cost of a batch tracks its
        content, not the global ``max_length``.
        """
        result = self._require_fitted()
        encoded = encode_dataset(dataset, self.pretrained.tokenizer,
                                 result.max_length)
        result.classifier.eval()
        predictions = np.zeros(len(encoded), dtype=np.int64)
        with no_grad():
            for indices, batch in iter_bucketed(encoded, batch_size):
                logits = result.classifier(
                    batch.input_ids, segment_ids=batch.segment_ids,
                    pad_mask=batch.pad_masks,
                    cls_index=uniform_cls_index(batch.cls_indices))
                predictions[indices] = logits.numpy().argmax(axis=-1)
        return predictions

    def evaluate(self, dataset: EMDataset) -> MatchingMetrics:
        """Precision/recall/F1 on a labeled dataset."""
        from .metrics import evaluate_predictions
        predictions = self.predict(dataset)
        return evaluate_predictions(np.asarray(dataset.labels()),
                                    predictions)

    def match_probability(self, entity_a: dict | Record,
                          entity_b: dict | Record) -> float:
        """Probability that two records refer to the same entity."""
        result = self._require_fitted()
        text_a, text_b = self._pair_texts(entity_a, entity_b)
        enc = self.pretrained.tokenizer.encode_pair(
            text_a, text_b, max_length=result.max_length)
        result.classifier.eval()
        with no_grad():
            probs = result.classifier.predict_proba(
                enc.input_ids[None, :], segment_ids=enc.segment_ids[None, :],
                pad_mask=enc.pad_mask[None, :], cls_index=enc.cls_index)
        return float(probs[0, 1])

    def match(self, entity_a: dict | Record, entity_b: dict | Record,
              threshold: float = 0.5) -> bool:
        """Binary match decision for a single record pair."""
        return self.match_probability(entity_a, entity_b) >= threshold

    def _pair_texts(self, entity_a: dict | Record,
                    entity_b: dict | Record) -> tuple[str, str]:
        record_a = entity_a if isinstance(entity_a, Record) \
            else Record(dict(entity_a))
        record_b = entity_b if isinstance(entity_b, Record) \
            else Record(dict(entity_b))
        schema = self._schema or record_a.attributes()
        attributes = self._text_attributes or schema
        return pair_texts(EntityPair(record_a, record_b, 0), attributes)

    def match_many(self, pairs, threshold: float = 0.5,
                   fallback: bool = True,
                   callbacks=None, fast: bool | None = None,
                   batch_size: int = 64) -> list[MatchOutcome]:
        """Match a batch of ``(entity_a, entity_b)`` pairs, isolating
        per-pair failures.

        A pair whose transformer path raises does not abort the batch:
        with ``fallback=True`` (the default) it is answered by the
        classical-similarity scorer and returned with ``degraded=True``
        and the failure message in ``error``; with ``fallback=False`` it
        comes back as a non-match with ``probability=0.0``.  Degraded
        pairs surface as ``recovery`` telemetry events through
        ``callbacks``.

        ``fast`` selects the length-bucketed batched engine (tokenize
        each pair once, forward in per-bucket-padded batches of
        ``batch_size``); ``fast=False`` forces the serial per-pair
        path.  Both paths tokenize through the tokenizer's own memo,
        so records repeated across calls are not re-tokenized.  The
        default (None) uses the fast engine unless ``match_probability``
        has been overridden on this *instance* (the scoring hook the
        serial path honors).  Isolation semantics
        are identical on both paths: an encode failure degrades that
        pair immediately; a batch forward failure retries each member
        individually before degrading the ones that still fail.
        """
        self._require_fitted()
        if fast is None:
            fast = "match_probability" not in self.__dict__
        cb = CallbackList.resolve(callbacks)
        pairs = list(pairs)
        if not fast:
            return self._match_many_serial(pairs, threshold, fallback, cb)
        return self.engine().score_pairs(
            pairs, threshold=threshold, fallback=fallback, cb=cb,
            batch_size=batch_size)

    def _match_many_serial(self, pairs, threshold: float, fallback: bool,
                           cb) -> list[MatchOutcome]:
        engine = self.engine()
        outcomes: list[MatchOutcome] = []
        for index, (entity_a, entity_b) in enumerate(pairs):
            try:
                probability = self.match_probability(entity_a, entity_b)
                outcomes.append(MatchOutcome(
                    index=index, probability=probability,
                    matched=probability >= threshold))
                continue
            except Exception as exc:  # noqa: BLE001 — isolation point
                error = f"{type(exc).__name__}: {exc}"
            outcomes.append(engine.degraded_outcome(
                index, entity_a, entity_b, error, threshold, fallback, cb))
        return outcomes

    def engine(self) -> MatchEngine:
        """The bucketed batch-scoring engine for this fitted matcher.

        This is the exact implementation behind ``match_many``'s fast
        path; :class:`repro.serve.MatchService` drives the same engine
        so served probabilities are bit-identical to ``match_many``.
        """
        result = self._require_fitted()
        return MatchEngine(self._pair_texts, self.pretrained.tokenizer,
                           result.classifier, result.max_length)
