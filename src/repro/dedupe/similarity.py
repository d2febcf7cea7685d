"""Model-free scoring engine speaking the ``score_pairs`` protocol.

The dedupe pipeline scores blocked candidates through any object with
the :meth:`repro.matching.MatchEngine.score_pairs` signature — the
transformer engine, the cascade, or this one.  :class:`SimilarityEngine`
answers with classical string similarity, which makes a full 100k-record
dedupe run feasible without a fitted model (and gives the benchmark an
engine whose cost doesn't drown the blocking measurements).
"""

from __future__ import annotations

from contextlib import ExitStack

from ..data.records import Record
from ..resilience.fallback import MatchOutcome, fallback_probability

__all__ = ["SimilarityEngine"]


def _text(entity, attributes: list[str] | None) -> str:
    record = entity if isinstance(entity, Record) else Record(dict(entity))
    return record.text_blob(attributes)


def _jaccard(tokens_a: set[str], tokens_b: set[str]) -> float:
    """Token-set Jaccard; the union is counted, never built."""
    shared = len(tokens_a & tokens_b)
    union = len(tokens_a) + len(tokens_b) - shared
    return shared / union if union else 0.0


class SimilarityEngine:
    """Score record pairs by classical string similarity.

    Parameters
    ----------
    attributes:
        Attributes serialized into the compared text (None = all).
    scorer:
        ``"blend"`` uses :func:`repro.resilience.fallback_probability`
        (Jaccard + Jaro-Winkler + Levenshtein — the degraded-matching
        blend, accurate but O(len^2) per pair); ``"jaccard"`` uses
        token-set overlap only (linear, the 100k-scale choice).
    """

    def __init__(self, attributes: list[str] | None = None,
                 scorer: str = "blend"):
        if scorer not in ("blend", "jaccard"):
            raise ValueError(f"unknown scorer {scorer!r}")
        self.attributes = attributes
        self.scorer = scorer

    def _features(self, entity):
        """What the scorer compares: the lower-cased token set for
        ``"jaccard"``, the serialized text for ``"blend"``."""
        text = _text(entity, self.attributes)
        if self.scorer == "jaccard":
            return set(text.lower().split())
        return text

    def _score(self, features_a, features_b) -> float:
        if self.scorer == "jaccard":
            return _jaccard(features_a, features_b)
        return fallback_probability(features_a, features_b)

    def _probability(self, entity_a, entity_b) -> float:
        return self._score(self._features(entity_a),
                           self._features(entity_b))

    def score_pairs(self, pairs, threshold: float = 0.5,
                    fallback: bool = True, cb=None, batch_size: int = 64,
                    keys=None, forward_hook=None,
                    stages=None) -> list[MatchOutcome]:
        """Score ``pairs``; one :class:`MatchOutcome` per pair, in order.

        Mirrors :meth:`repro.matching.MatchEngine.score_pairs`:
        ``keys`` become outcome indices, a failing pair degrades to a
        zero-probability outcome instead of aborting the batch, and
        ``stages`` receives one clock-timed ``similarity`` record.
        Each entity's features are computed once per call (memoized by
        object identity); an entity whose extraction fails is not
        memoized, so each of its pairs degrades on its own.
        ``fallback`` / ``cb`` / ``forward_hook`` are accepted for
        protocol compatibility (there is no model path to fall back
        from or hook into).
        """
        del fallback, cb, batch_size, forward_hook
        pairs = list(pairs)
        keys = list(keys) if keys is not None else list(range(len(pairs)))
        if len(keys) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(keys)} keys")
        memo: dict[int, object] = {}

        def features(entity):
            key = id(entity)
            if key not in memo:
                memo[key] = self._features(entity)
            return memo[key]

        outcomes: list[MatchOutcome] = []
        with ExitStack() as scope:
            if stages is not None:
                scope.enter_context(stages.stage("similarity",
                                                 pairs=len(pairs)))
            for key, (entity_a, entity_b) in zip(keys, pairs):
                try:
                    probability = self._score(features(entity_a),
                                              features(entity_b))
                    outcomes.append(MatchOutcome(
                        index=key, probability=probability,
                        matched=probability >= threshold))
                except Exception as error:  # isolate per-pair failures
                    outcomes.append(MatchOutcome(
                        index=key, probability=0.0, matched=False,
                        degraded=True,
                        error=f"{type(error).__name__}: {error}"))
        return outcomes
