"""Model-free scoring engine speaking the ``score_pairs`` protocol.

The dedupe pipeline scores blocked candidates through any object with
the :meth:`repro.matching.MatchEngine.score_pairs` signature — the
transformer engine, the cascade, or this one.  :class:`SimilarityEngine`
answers with classical string similarity, which makes a full 100k-record
dedupe run feasible without a fitted model (and gives the benchmark an
engine whose cost doesn't drown the blocking measurements).

The Jaccard scorer is columnar.  Each entity's features are extracted
once into a :class:`TokenTable` (token sets interned into sorted
integer codes), a batch's intersection sizes are counted in numpy over
its two row-index columns, and the outcomes come back as
:class:`ScoredPairs` columns.  Under :func:`repro.dedupe.dedupe_records`
the table lives for the whole run; any other caller gets a table over
the distinct entities of its call.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import ExitStack
from itertools import count

import numpy as np

from ..data.records import Record
from ..resilience.fallback import MatchOutcome, fallback_probability
from .pipeline import CandidatePairs

__all__ = ["SimilarityEngine", "TokenTable", "ScoredPairs"]


def _text(entity, attributes: list[str] | None) -> str:
    record = entity if isinstance(entity, Record) else Record(dict(entity))
    return record.text_blob(attributes)


def _jaccard(tokens_a: set[str], tokens_b: set[str]) -> float:
    """Token-set Jaccard; the union is counted, never built."""
    shared = len(tokens_a & tokens_b)
    union = len(tokens_a) + len(tokens_b) - shared
    return shared / union if union else 0.0


class TokenTable:
    """Token sets interned once into sorted integer codes (CSR rows).

    Row ``r`` holds the codes of the ``r``-th set, ascending, as the
    int64 keys ``r * width + code``; the keys are sorted over the whole
    table, so one ``searchsorted`` finds a code in any row.
    :meth:`jaccard` counts the same integers as :func:`_jaccard` and
    divides them the same way, so both give the same bits.
    """

    def __init__(self, token_sets):
        vocabulary = defaultdict(count().__next__)
        sizes = array("q")
        codes = array("q")
        for tokens in token_sets:
            sizes.append(len(tokens))
            codes.extend(map(vocabulary.__getitem__, tokens))
        self.sizes = np.frombuffer(sizes, dtype=np.int64)
        self.offsets = np.zeros(len(self.sizes) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=self.offsets[1:])
        self.width = max(len(vocabulary), 1)
        rows = np.repeat(np.arange(len(self.sizes), dtype=np.int64),
                         self.sizes)
        keys = rows * self.width + np.frombuffer(codes, dtype=np.int64)
        keys.sort()
        # A sentinel past every key: a search never runs off the end.
        self.keys = np.append(keys, np.iinfo(np.int64).max)

    def __len__(self) -> int:
        return len(self.sizes)

    def jaccard(self, index_a: np.ndarray, index_b: np.ndarray
                ) -> np.ndarray:
        """Jaccard of rows ``index_a[k]`` and ``index_b[k]``, per ``k``."""
        sizes_a = self.sizes[index_a]
        ends = np.cumsum(sizes_a)
        total = int(ends[-1]) if len(ends) else 0
        # Every code of each row a, moved into row b's key range.
        gather = (np.repeat(self.offsets[index_a] - (ends - sizes_a),
                            sizes_a)
                  + np.arange(total, dtype=np.int64))
        query = self.keys[gather] + np.repeat(
            (index_b - index_a) * self.width, sizes_a)
        hits = self.keys[np.searchsorted(self.keys, query)] == query
        running = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(hits, out=running[1:])
        shared = running[ends] - running[ends - sizes_a]
        union = sizes_a + self.sizes[index_b] - shared
        probability = np.zeros(len(union))
        np.divide(shared, union, out=probability, where=union > 0)
        return probability


class ScoredPairs:
    """Outcomes of one ``score_pairs`` call, held as columns.

    ``probability``, ``matched`` and ``degraded`` are arrays, one entry
    per pair; ``errors`` maps a degraded pair's position to its error.
    Indexing or iterating builds :class:`MatchOutcome` objects on
    demand, so a column reader (``dedupe_records``) never pays for
    them.  Assigning an outcome writes it back into the columns (the
    cascade replaces escalated outcomes in place).
    """

    __slots__ = ("keys", "probability", "matched", "degraded", "errors")

    def __init__(self, keys, probability: np.ndarray, matched: np.ndarray,
                 degraded: np.ndarray, errors: dict[int, str]):
        self.keys = keys
        self.probability = probability
        self.matched = matched
        self.degraded = degraded
        self.errors = errors

    def __len__(self) -> int:
        return len(self.probability)

    def __getitem__(self, position: int) -> MatchOutcome:
        position = range(len(self))[position]
        return MatchOutcome(
            index=self.keys[position],
            probability=float(self.probability[position]),
            matched=bool(self.matched[position]),
            degraded=bool(self.degraded[position]),
            error=self.errors.get(position))

    def __setitem__(self, position: int, outcome: MatchOutcome) -> None:
        position = range(len(self))[position]
        self.keys[position] = outcome.index
        self.probability[position] = outcome.probability
        self.matched[position] = outcome.matched
        self.degraded[position] = outcome.degraded
        self.errors.pop(position, None)
        if outcome.error is not None:
            self.errors[position] = outcome.error

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


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
        """The per-pair reference the columnar path reproduces."""
        return self._score(self._features(entity_a),
                           self._features(entity_b))

    def _table(self, entities) -> tuple[object, dict[int, str]]:
        """Each entity's features, extracted once: a :class:`TokenTable`
        (``"jaccard"``) or a list of texts (``"blend"``), plus the error
        of each row whose extraction raised (an empty row)."""
        errors: dict[int, str] = {}
        empty = set() if self.scorer == "jaccard" else ""

        def extract():
            for row, entity in enumerate(entities):
                try:
                    yield self._features(entity)
                except Exception as error:  # isolate per-entity failures
                    errors[row] = f"{type(error).__name__}: {error}"
                    yield empty

        # The table interns one token set at a time; the sets are
        # never all held at once.
        features = (TokenTable(extract()) if self.scorer == "jaccard"
                    else list(extract()))
        return features, errors

    def score_pairs(self, pairs, threshold: float = 0.5,
                    fallback: bool = True, cb=None, batch_size: int = 64,
                    keys=None, forward_hook=None,
                    stages=None) -> ScoredPairs:
        """Score ``pairs``; one outcome per pair, in order.

        Mirrors :meth:`repro.matching.MatchEngine.score_pairs`:
        ``keys`` become outcome indices, a failing pair degrades to a
        zero-probability outcome instead of aborting the batch, and
        ``stages`` receives one clock-timed ``similarity`` record.
        Each entity's features are extracted once: per run for a
        :class:`~repro.dedupe.pipeline.CandidatePairs` batch (the table
        is kept in its run cache), per call over the distinct entities
        (by identity) of any other pair sequence.  An entity whose
        extraction fails degrades each of its pairs with its error.
        ``fallback`` / ``cb`` / ``forward_hook`` are accepted for
        protocol compatibility (there is no model path to fall back
        from or hook into).
        """
        del fallback, cb, batch_size, forward_hook
        columnar = isinstance(pairs, CandidatePairs)
        pairs = pairs if columnar else list(pairs)
        keys = list(keys) if keys is not None else list(range(len(pairs)))
        if len(keys) != len(pairs):
            raise ValueError(f"{len(pairs)} pairs but {len(keys)} keys")
        with ExitStack() as scope:
            if stages is not None:
                scope.enter_context(stages.stage("similarity",
                                                 pairs=len(pairs)))
            if columnar:
                index_a, index_b = pairs.index_a, pairs.index_b
                if self not in pairs.cache:
                    pairs.cache[self] = self._table(pairs.records)
                table = pairs.cache[self]
            else:
                entities, index_a, index_b = _distinct_rows(pairs)
                table = self._table(entities)
            return self._score_rows(table, index_a, index_b, threshold,
                                    keys)

    def _score_rows(self, table, index_a: np.ndarray, index_b: np.ndarray,
                    threshold: float, keys: list) -> ScoredPairs:
        features, row_errors = table
        errors: dict[int, str] = {}
        degraded = np.zeros(len(index_a), dtype=bool)
        if row_errors:
            failed = np.zeros(len(features), dtype=bool)
            failed[list(row_errors)] = True
            degraded = failed[index_a] | failed[index_b]
            for position in np.flatnonzero(degraded).tolist():
                a = int(index_a[position])
                row = a if a in row_errors else int(index_b[position])
                errors[position] = row_errors[row]
        if self.scorer == "jaccard":
            # A failed row is empty, so its pairs already score 0.0.
            probability = features.jaccard(index_a, index_b)
        else:
            probability = np.zeros(len(index_a))
            for position, (a, b) in enumerate(zip(index_a.tolist(),
                                                  index_b.tolist())):
                if degraded[position]:
                    continue
                try:
                    probability[position] = self._score(features[a],
                                                        features[b])
                except Exception as error:  # isolate per-pair failures
                    degraded[position] = True
                    errors[position] = f"{type(error).__name__}: {error}"
        matched = (probability >= threshold) & ~degraded
        return ScoredPairs(keys, probability, matched, degraded, errors)


def _distinct_rows(pairs: list) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct entities of a pair list (by identity) and each
    pair's two row indices into them."""
    rows: dict[int, int] = {}
    entities: list = []

    def row(entity) -> int:
        key = id(entity)
        if key not in rows:
            rows[key] = len(entities)
            entities.append(entity)
        return rows[key]

    index_a = np.empty(len(pairs), dtype=np.int64)
    index_b = np.empty(len(pairs), dtype=np.int64)
    for position, (entity_a, entity_b) in enumerate(pairs):
        index_a[position] = row(entity_a)
        index_b[position] = row(entity_b)
    return entities, index_a, index_b
