"""The bucketed batch-scoring engine shared by ``match_many`` and serving.

:class:`MatchEngine` is the single implementation of the fast matching
path: tokenize each pair once through the LRU cache, forward in
length-bucketed batches under ``no_grad`` (the model forward with the
tape off), and isolate per-pair failures — an encode
failure degrades that pair immediately, a batch forward failure retries
each member individually before degrading the ones that still fail.

It exists as its own class (rather than private methods on
:class:`~repro.matching.api.EntityMatcher`) because two callers need
exactly these semantics on exactly the same floats:

* ``EntityMatcher.match_many(fast=True)`` — the single-caller bulk API;
* :class:`repro.serve.MatchService` — the concurrent micro-batching
  service, which must return **bit-identical** probabilities to
  ``match_many`` for the same set of pairs (the serving layer's core
  correctness contract, tested in ``tests/test_serve.py``).

``score_pairs`` accepts two hooks the service relies on:

* ``keys`` — one identifier per pair; outcomes carry it as their
  ``index`` so results can be routed back to the right request even
  when the engine scores an arbitrary drained chunk of a queue;
* ``forward_hook`` — called with the keys of every batch (and every
  single-row retry) before the model forward, so fault injection
  (:meth:`repro.resilience.ChaosMonkey.maybe_fail_forward`) can poison
  specific requests and the tests can prove degradation stays scoped to
  exactly the poisoned ones.
"""

from __future__ import annotations

import time
from contextlib import ExitStack

import numpy as np

from ..nn import no_grad
from ..nn.fused import count_kernels
from ..obs import default_registry
from ..resilience import MatchOutcome, fallback_probability
from .serializer import EncodedPairs, iter_bucketed, uniform_cls_index

__all__ = ["MatchEngine"]


class MatchEngine:
    """Length-bucketed, failure-isolating batch scorer for record pairs.

    Parameters
    ----------
    pair_texts:
        Callable ``(entity_a, entity_b) -> (text_a, text_b)`` producing
        the serialized entity blobs (schema-aware; usually
        ``EntityMatcher._pair_texts``).
    tokenizer:
        The architecture's subword tokenizer (with its tokenization
        cache attached, if caching is wanted).
    classifier:
        The fine-tuned classification model exposing ``predict_proba``.
    max_length:
        Fixed encoding length chosen at fine-tuning time.
    registry:
        Metrics registry for the ``perf.match.*`` phase gauges
        (defaults to the process-wide registry).
    """

    def __init__(self, pair_texts, tokenizer, classifier, max_length: int,
                 registry=None):
        self._pair_texts = pair_texts
        self._tokenizer = tokenizer
        self._classifier = classifier
        self._max_length = max_length
        self._registry = registry if registry is not None \
            else default_registry()

    # -- failure path --------------------------------------------------------

    def degraded_outcome(self, key: int, entity_a, entity_b, error: str,
                         threshold: float, fallback: bool,
                         cb=None) -> MatchOutcome:
        """A fallback-scored (or skipped) outcome plus its telemetry."""
        probability = 0.0
        if fallback:
            try:
                text_a, text_b = self._pair_texts(entity_a, entity_b)
                probability = fallback_probability(text_a, text_b)
            except Exception as exc:  # noqa: BLE001
                error += f"; fallback failed too ({exc})"
        if cb:
            cb.on_recovery({
                "phase": "match", "reason": "pair_failure",
                "action": ("similarity_fallback" if fallback
                           else "skipped"),
                "index": key, "error": error})
        return MatchOutcome(
            index=key, probability=probability,
            matched=fallback and probability >= threshold,
            degraded=True, error=error)

    # -- scoring -------------------------------------------------------------

    def score_pairs(self, pairs, threshold: float = 0.5,
                    fallback: bool = True, cb=None, batch_size: int = 64,
                    keys=None, forward_hook=None,
                    stages=None) -> list[MatchOutcome]:
        """Score ``pairs``; one :class:`MatchOutcome` per pair, in order.

        ``keys`` (default ``range(len(pairs))``) become the outcomes'
        ``index`` values; ``forward_hook(batch_keys)`` runs inside the
        isolation boundary before every model forward.  ``stages`` (a
        :class:`repro.obs.tracing.BatchStages`) receives clock-timed
        ``tokenize`` / ``forward`` stage spans — the forward record also
        carries the kernel invocation mix.
        """
        pairs = list(pairs)
        keys = list(keys) if keys is not None else list(range(len(pairs)))
        if len(keys) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(keys)} keys")
        outcomes: list[MatchOutcome | None] = [None] * len(pairs)

        encode_t0 = time.perf_counter()
        kept: list[int] = []          # position in ``pairs`` per encoded row
        encodings = []
        with ExitStack() as scope:
            if stages is not None:
                scope.enter_context(stages.stage("tokenize",
                                                 pairs=len(pairs)))
            for position, (entity_a, entity_b) in enumerate(pairs):
                try:
                    text_a, text_b = self._pair_texts(entity_a, entity_b)
                    enc = self._tokenizer.encode_pair(
                        text_a, text_b, max_length=self._max_length)
                except Exception as exc:  # noqa: BLE001 — isolation point
                    outcomes[position] = self.degraded_outcome(
                        keys[position], entity_a, entity_b,
                        f"{type(exc).__name__}: {exc}", threshold,
                        fallback, cb)
                    continue
                kept.append(position)
                encodings.append(enc)
        encode_seconds = time.perf_counter() - encode_t0

        forward_t0 = time.perf_counter()
        with ExitStack() as scope:
            if stages is not None:
                record = scope.enter_context(
                    stages.stage("forward", rows=len(encodings)))
                # The counts dict fills in place as kernels run, so
                # wiring it into the record up front is safe.
                record.attrs["kernels"] = scope.enter_context(
                    count_kernels())
            if encodings:
                encoded = EncodedPairs(
                    np.stack([e.input_ids for e in encodings]),
                    np.stack([e.segment_ids for e in encodings]),
                    np.stack([e.pad_mask for e in encodings]),
                    np.asarray([e.cls_index for e in encodings]),
                    np.zeros(len(encodings), dtype=np.int64))
                classifier = self._classifier
                classifier.eval()
                with no_grad():
                    for rows, batch in iter_bucketed(encoded, batch_size):
                        try:
                            if forward_hook is not None:
                                forward_hook([keys[kept[int(r)]]
                                              for r in rows])
                            probs = classifier.predict_proba(
                                batch.input_ids,
                                segment_ids=batch.segment_ids,
                                pad_mask=batch.pad_masks,
                                cls_index=uniform_cls_index(
                                    batch.cls_indices))[:, 1]
                        except Exception:  # noqa: BLE001 — isolation
                            # point
                            self._retry_rows(rows, kept, encodings,
                                             pairs, keys, outcomes,
                                             threshold, fallback, cb,
                                             forward_hook)
                            continue
                        for row, probability in zip(rows, probs):
                            position = kept[int(row)]
                            outcomes[position] = MatchOutcome(
                                index=keys[position],
                                probability=float(probability),
                                matched=float(probability) >= threshold)
        forward_seconds = time.perf_counter() - forward_t0

        self._registry.gauge("perf.match.encode_seconds").set(
            encode_seconds)
        self._registry.gauge("perf.match.forward_seconds").set(
            forward_seconds)
        self._registry.counter("perf.match.pairs").inc(len(pairs))
        return outcomes

    def _retry_rows(self, rows, kept, encodings, pairs, keys, outcomes,
                    threshold: float, fallback: bool, cb,
                    forward_hook) -> None:
        """A bucket forward failed: re-run its members one by one, so a
        single poisoned pair cannot take down its batch neighbors."""
        for row in rows:
            position = kept[int(row)]
            enc = encodings[int(row)]
            try:
                if forward_hook is not None:
                    forward_hook([keys[position]])
                probs = self._classifier.predict_proba(
                    enc.input_ids[None, :],
                    segment_ids=enc.segment_ids[None, :],
                    pad_mask=enc.pad_mask[None, :],
                    cls_index=enc.cls_index)
                probability = float(probs[0, 1])
            except Exception as exc:  # noqa: BLE001 — isolation point
                entity_a, entity_b = pairs[position]
                outcomes[position] = self.degraded_outcome(
                    keys[position], entity_a, entity_b,
                    f"{type(exc).__name__}: {exc}", threshold, fallback,
                    cb)
                continue
            outcomes[position] = MatchOutcome(
                index=keys[position], probability=probability,
                matched=probability >= threshold)
