"""Scoring backends pluggable into :class:`repro.serve.MatchService`.

A backend is anything with::

    score(pairs, keys, threshold, fallback, forward_hook=None, cb=None,
          stages=None) -> list[MatchOutcome]   # in order, index = key

``stages`` (a :class:`repro.obs.tracing.BatchStages`, or None when the
drained chunk contains no sampled request) lets the backend report
clock-timed tokenize/forward stage spans that the service grafts into
each member request's span tree.  The service always passes it, so
every backend must accept it.

The service drains a chunk of queued requests and hands the whole chunk
to the backend; the backend owns batching within the chunk, per-pair
failure isolation, and degradation semantics.  The implementations:

* :class:`MatcherBackend` — the real thing: a fitted
  :class:`repro.matching.EntityMatcher` scored through its shared
  :class:`~repro.matching.MatchEngine`, so a pair's first scoring is
  bit-identical to ``match_many``;
* :class:`CascadeBackend` — a :class:`~repro.matching.CascadeEngine`
  through the same path.  Both keep a bounded outcome memo: a repeated
  pair is answered with its first scoring's probability, without a
  forward (``perf.outcome_cache.*`` counters, a ``memo`` stage);
* :class:`DeepMatcherBackend` — the DeepMatcher baseline behind the
  same interface, proving the service is architecture-agnostic;
* :class:`CallableBackend` — wraps a plain ``f(entity_a, entity_b) ->
  probability`` function; used by the queueing/timeout/backpressure
  tests, which need deterministic scores without model weights.
"""

from __future__ import annotations

from contextlib import ExitStack

from ..data import EMDataset, EntityPair, Record
from ..obs import default_registry
from ..perf import LRUCache
from ..resilience import MatchOutcome, fallback_probability

__all__ = ["MatcherBackend", "CascadeBackend", "DeepMatcherBackend",
           "CallableBackend"]


def _as_record(entity) -> Record:
    return entity if isinstance(entity, Record) else Record(dict(entity))


def _entity_items(entity) -> tuple:
    values = entity.values if isinstance(entity, Record) else entity
    return tuple(values.items())


def _memo_key(entity_a, entity_b):
    """The ordered attribute content of both entities — what
    ``_pair_texts`` serializes — or None when an entity is not a
    mapping of hashable values (such a pair is never memoized)."""
    try:
        key = (_entity_items(entity_a), _entity_items(entity_b))
        hash(key)
    except (AttributeError, TypeError):
        return None
    return key


class _EngineBackend:
    """The shared ``score`` path of the engine-backed backends.

    A bounded outcome memo sits in front of ``score_pairs``: a pair whose
    probability this backend already computed is answered from memory
    with no tokenize and no forward (so ``forward_hook`` does not run
    for it), and only the misses reach the scorer — in request order,
    in one call, in-chunk duplicates included — so a chunk of first-seen
    pairs is scored exactly as without the memo.  Only non-degraded
    probabilities are stored; the decision is re-derived from each
    call's threshold.  The scorer is a snapshot whose weights never
    change, so a hit returns the pair's first scoring.  ``memo`` is the
    :class:`~repro.perf.LRUCache` (4096 pairs, as the tokenizer memo's
    text map).  It is the only memo of whole pairs: the tokenizer
    below it memoizes each record's text, not the pair.
    """

    def __init__(self, scorer, batch_size: int):
        self._scorer = scorer
        self._batch_size = batch_size
        self.memo = LRUCache()
        registry = default_registry()
        self._hits = registry.counter("perf.outcome_cache.hits")
        self._misses = registry.counter("perf.outcome_cache.misses")
        self._evictions = registry.counter("perf.outcome_cache.evictions")

    def score(self, pairs, keys, threshold: float, fallback: bool,
              forward_hook=None, cb=None,
              stages=None) -> list[MatchOutcome]:
        pairs = list(pairs)
        keys = list(keys)
        if len(keys) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(keys)} keys")
        outcomes: list[MatchOutcome | None] = [None] * len(pairs)
        with ExitStack() as scope:
            if stages is not None:
                record = scope.enter_context(
                    stages.stage("memo", pairs=len(pairs)))
            memo_keys = [_memo_key(a, b) for a, b in pairs]
            misses = []
            for position, memo_key in enumerate(memo_keys):
                probability = (None if memo_key is None
                               else self.memo.get(memo_key))
                if probability is None:
                    misses.append(position)
                    continue
                outcomes[position] = MatchOutcome(
                    index=keys[position], probability=probability,
                    matched=probability >= threshold)
            if stages is not None:
                record.attrs["hits"] = len(pairs) - len(misses)
        self._hits.inc(len(pairs) - len(misses))
        self._misses.inc(len(misses))
        if not misses:
            return outcomes
        scored = self._scorer.score_pairs(
            [pairs[position] for position in misses], threshold=threshold,
            fallback=fallback, cb=cb, batch_size=self._batch_size,
            keys=[keys[position] for position in misses],
            forward_hook=forward_hook, stages=stages)
        for position, outcome in zip(misses, scored):
            outcomes[position] = outcome
            memo_key = memo_keys[position]
            if (memo_key is not None and not outcome.degraded
                    and self.memo.put(memo_key, outcome.probability)):
                self._evictions.inc()
        return outcomes


class MatcherBackend(_EngineBackend):
    """Serve a fitted :class:`repro.matching.EntityMatcher`.

    Built once per service: :meth:`~repro.matching.EntityMatcher.engine`
    snapshots the fitted classifier/tokenizer into a
    :class:`~repro.matching.MatchEngine`, the exact scorer behind
    ``match_many(fast=True)`` — which is what makes the service's
    decision-equivalence guarantee hold.
    """

    def __init__(self, matcher, batch_size: int = 64):
        super().__init__(matcher.engine(), batch_size)


class CascadeBackend(_EngineBackend):
    """Serve a :class:`repro.matching.CascadeEngine`.

    The cascade follows the engine's ``score_pairs`` protocol exactly,
    so the serving, resilience and tracing tiers compose with it
    unchanged: a chunk of first-seen pairs scores bit-identically to
    calling the cascade directly, escalated requests pick up an
    ``escalate`` trace stage, and ``cascade.*`` escalation counters
    accumulate in the cascade's metrics registry (memo hits skip both
    engines, so they count no cascade pairs).
    """

    def __init__(self, cascade, batch_size: int = 64):
        super().__init__(cascade, batch_size)


class DeepMatcherBackend:
    """Serve the fitted DeepMatcher baseline.

    Wraps request pairs into a throwaway :class:`~repro.data.EMDataset`
    (labels are placeholders — only ``predict_proba`` is used) and
    applies the same isolation contract as the engine: a failed chunk
    forward is retried pair by pair, and pairs that still fail degrade
    to the classical-similarity fallback.
    """

    def __init__(self, deepmatcher, schema: list[str],
                 text_attributes: list[str] | None = None,
                 domain: str = "serve"):
        self._dm = deepmatcher
        self._schema = list(schema)
        self._text_attributes = (list(text_attributes)
                                 if text_attributes else None)
        self._domain = domain

    def _dataset(self, pairs) -> EMDataset:
        return EMDataset(
            name="serve-chunk", domain=self._domain,
            schema=list(self._schema),
            pairs=[EntityPair(_as_record(a), _as_record(b), 0)
                   for a, b in pairs],
            text_attributes=self._text_attributes)

    def _degraded(self, key, entity_a, entity_b, error: str,
                  threshold: float, fallback: bool, cb) -> MatchOutcome:
        probability = 0.0
        if fallback:
            attributes = self._text_attributes or self._schema
            try:
                probability = fallback_probability(
                    _as_record(entity_a).text_blob(attributes),
                    _as_record(entity_b).text_blob(attributes))
            except Exception as exc:  # noqa: BLE001
                error += f"; fallback failed too ({exc})"
        if cb:
            cb.on_recovery({
                "phase": "serve", "reason": "pair_failure",
                "action": ("similarity_fallback" if fallback
                           else "skipped"),
                "index": key, "error": error})
        return MatchOutcome(
            index=key, probability=probability,
            matched=fallback and probability >= threshold,
            degraded=True, error=error)

    def _score_one(self, key, entity_a, entity_b, threshold: float,
                   fallback: bool, forward_hook, cb) -> MatchOutcome:
        try:
            if forward_hook is not None:
                forward_hook([key])
            probability = float(self._dm.predict_proba(
                self._dataset([(entity_a, entity_b)]))[0])
        except Exception as exc:  # noqa: BLE001 — isolation point
            return self._degraded(key, entity_a, entity_b,
                                  f"{type(exc).__name__}: {exc}",
                                  threshold, fallback, cb)
        return MatchOutcome(index=key, probability=probability,
                            matched=probability >= threshold)

    def score(self, pairs, keys, threshold: float, fallback: bool,
              forward_hook=None, cb=None,
              stages=None) -> list[MatchOutcome]:
        pairs = list(pairs)
        keys = list(keys)
        if len(keys) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(keys)} keys")
        with ExitStack() as scope:
            if stages is not None:
                scope.enter_context(stages.stage("forward",
                                                 rows=len(pairs)))
            try:
                if forward_hook is not None:
                    forward_hook(keys)
                probabilities = self._dm.predict_proba(
                    self._dataset(pairs))
            except Exception:  # noqa: BLE001 — retry singly, like the
                # engine
                return [self._score_one(key, entity_a, entity_b,
                                        threshold, fallback,
                                        forward_hook, cb)
                        for key, (entity_a, entity_b) in zip(keys, pairs)]
        return [MatchOutcome(index=key, probability=float(p),
                             matched=float(p) >= threshold)
                for key, p in zip(keys, probabilities)]


class CallableBackend:
    """Adapt ``f(entity_a, entity_b) -> probability`` to the interface.

    The workhorse of the deterministic service tests: scoring is
    instant and exact, so tests exercise pure queueing behavior
    (coalescing, deadlines, backpressure) without fitting a model.  A
    raised scoring function (or a poisoned forward hook) degrades that
    pair with probability 0.0.
    """

    def __init__(self, fn):
        self._fn = fn

    def _score_one(self, key, entity_a, entity_b, threshold: float,
                   fallback: bool, forward_hook, cb) -> MatchOutcome:
        try:
            if forward_hook is not None:
                forward_hook([key])
            probability = float(self._fn(entity_a, entity_b))
        except Exception as exc:  # noqa: BLE001 — isolation point
            if cb:
                cb.on_recovery({
                    "phase": "serve", "reason": "pair_failure",
                    "action": "skipped", "index": key,
                    "error": f"{type(exc).__name__}: {exc}"})
            return MatchOutcome(
                index=key, probability=0.0, matched=False,
                degraded=True, error=f"{type(exc).__name__}: {exc}")
        return MatchOutcome(index=key, probability=probability,
                            matched=probability >= threshold)

    def score(self, pairs, keys, threshold: float, fallback: bool,
              forward_hook=None, cb=None,
              stages=None) -> list[MatchOutcome]:
        pairs = list(pairs)
        keys = list(keys)
        if len(keys) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(keys)} keys")
        with ExitStack() as scope:
            if stages is not None:
                scope.enter_context(stages.stage("forward",
                                                 rows=len(pairs)))
            try:
                if forward_hook is not None:
                    forward_hook(keys)
                probabilities = [float(self._fn(a, b)) for a, b in pairs]
            except Exception:  # noqa: BLE001 — retry singly, like the
                # engine
                return [self._score_one(key, a, b, threshold, fallback,
                                        forward_hook, cb)
                        for key, (a, b) in zip(keys, pairs)]
        return [MatchOutcome(index=key, probability=p, matched=p >= threshold)
                for key, p in zip(keys, probabilities)]
