"""End-to-end deduplication: block → score → cluster.

:func:`dedupe_records` turns a raw record collection into stable entity
ids in three streamed stages:

1. **block** — a :class:`repro.data.Blocker` emits candidate pairs in
   bounded batches of int64 index columns (self-join mode, never the
   cross product);
2. **score** — each batch is scored through any engine speaking the
   ``score_pairs`` protocol (:class:`repro.matching.MatchEngine` via
   :meth:`EntityMatcher.engine`, :class:`repro.matching.CascadeEngine`,
   or the model-free :class:`repro.dedupe.SimilarityEngine`);
3. **cluster** — each batch's match flags are read as a column, only
   the matched edges fold into a :class:`UnionFind` incrementally, and
   the transitive closure becomes min-index entity ids.

The engine receives each batch as a :class:`CandidatePairs`: to any
engine a sequence of ``(record_a, record_b)`` tuples; to a columnar
one (:class:`repro.dedupe.SimilarityEngine`) also the ``records``, the
batch's two index columns and a cache that lives for the run.  An
engine whose outcomes expose ``matched`` / ``degraded`` arrays is read
from those; any other outcome list is read once into arrays.

Peak memory is the blocker's index plus one candidate batch: the
pipeline holds at most ``config.candidate_batch`` pairs at a time and
records the high-water mark (``DedupeResult.max_candidate_batch``) as
evidence.  Metrics land under ``blocking.*`` / ``dedupe.*`` in the obs
registry; each stage runs inside a trace span.  Cluster artifacts are
written atomically in a canonical form, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data.blocking import Blocker
from ..obs import default_registry
from ..obs.tracing import trace
from ..utils import atomic_write_text
from .cluster import UnionFind

__all__ = ["CandidatePairs", "DedupeConfig", "DedupeResult",
           "dedupe_records", "write_clusters", "load_clusters"]

#: Artifact schema version for cluster files.
CLUSTERS_SCHEMA = 1


@dataclass(frozen=True)
class DedupeConfig:
    """Knobs for one dedupe run."""

    threshold: float = 0.5        # match probability cut
    batch_size: int = 64          # engine micro-batch
    candidate_batch: int = 2048   # blocker emission batch
    fallback: bool = True         # engine degradation on per-pair failure

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {self.threshold}")
        if self.batch_size < 1 or self.candidate_batch < 1:
            raise ValueError("batch sizes must be >= 1")


class CandidatePairs:
    """One candidate batch as the pair sequence an engine scores.

    Iterates and indexes as ``(records[index_a[k]], records[index_b[k]])``
    tuples, so engines that read pairs (``MatchEngine``, the cascade)
    take it as they take a list.  A columnar engine reads ``records``,
    ``index_a`` and ``index_b`` instead, and keeps what it derives from
    ``records`` (a token table) in ``cache``, which one
    :func:`dedupe_records` run shares across all of its batches.
    """

    __slots__ = ("records", "index_a", "index_b", "cache")

    def __init__(self, records: list, index_a: np.ndarray,
                 index_b: np.ndarray, cache: dict):
        self.records = records
        self.index_a = index_a
        self.index_b = index_b
        self.cache = cache

    def __len__(self) -> int:
        return len(self.index_a)

    def __getitem__(self, position: int) -> tuple:
        return (self.records[self.index_a[position]],
                self.records[self.index_b[position]])

    def __iter__(self):
        return zip(map(self.records.__getitem__, self.index_a.tolist()),
                   map(self.records.__getitem__, self.index_b.tolist()))


def _flags(outcomes) -> tuple[np.ndarray, np.ndarray]:
    """The ``matched`` and ``degraded`` columns of a batch's outcomes."""
    matched = getattr(outcomes, "matched", None)
    degraded = getattr(outcomes, "degraded", None)
    if isinstance(matched, np.ndarray) and isinstance(degraded, np.ndarray):
        return matched, degraded
    outcomes = list(outcomes)
    return (np.fromiter((o.matched for o in outcomes), dtype=bool,
                        count=len(outcomes)),
            np.fromiter((o.degraded for o in outcomes), dtype=bool,
                        count=len(outcomes)))


@dataclass
class DedupeResult:
    """Outcome of one :func:`dedupe_records` run."""

    num_records: int
    num_candidates: int
    num_matches: int
    num_degraded: int
    entity_ids: list[int]
    threshold: float
    max_candidate_batch: int = 0  # streaming high-water mark
    batches: int = 0

    @property
    def num_entities(self) -> int:
        return len(set(self.entity_ids))

    def clusters(self) -> dict[int, list[int]]:
        """Entity id → sorted member record indices."""
        members: dict[int, list[int]] = {}
        for index, entity in enumerate(self.entity_ids):
            members.setdefault(entity, []).append(index)
        return {entity: sorted(indices)
                for entity, indices in sorted(members.items())}


def dedupe_records(records, blocker: Blocker, engine,
                   config: DedupeConfig | None = None,
                   registry=None, cb=None) -> DedupeResult:
    """Deduplicate one record collection into stable entity ids.

    ``engine`` is anything with the ``score_pairs(pairs, threshold=...,
    fallback=..., batch_size=..., keys=...)`` protocol.  ``cb``, when
    given, is called as ``cb(batch_index, scored_pairs)`` after each
    candidate batch — progress reporting for long runs.
    """
    config = config if config is not None else DedupeConfig()
    registry = registry if registry is not None else default_registry()
    records = list(records)
    forest = UnionFind(len(records))
    cache: dict = {}
    num_candidates = 0
    num_matches = 0
    num_degraded = 0
    batches = 0
    high_water = 0
    with trace("dedupe", records=len(records)):
        with trace("dedupe.block_score"):
            stream = blocker.iter_candidates(
                records, batch_size=config.candidate_batch)
            for batch_index, batch in enumerate(stream):
                batches += 1
                high_water = max(high_water, len(batch))
                num_candidates += len(batch)
                registry.counter("blocking.candidates").inc(len(batch))
                registry.counter("blocking.batches").inc()
                pairs = CandidatePairs(records, batch.index_a,
                                       batch.index_b, cache)
                outcomes = engine.score_pairs(
                    pairs, threshold=config.threshold,
                    fallback=config.fallback,
                    batch_size=config.batch_size,
                    keys=list(range(len(pairs))))
                registry.counter("dedupe.pairs_scored").inc(len(outcomes))
                matched, degraded = _flags(outcomes)
                degraded = int(np.count_nonzero(degraded))
                if degraded:
                    num_degraded += degraded
                    registry.counter("dedupe.degraded").inc(degraded)
                edges = np.flatnonzero(matched)
                for a, b in zip(batch.index_a[edges].tolist(),
                                batch.index_b[edges].tolist()):
                    forest.union(a, b)
                num_matches += len(edges)
                registry.counter("dedupe.matches").inc(len(edges))
                if cb is not None:
                    cb(batch_index, len(outcomes))
        with trace("dedupe.cluster"):
            entity_ids = forest.labels()
    result = DedupeResult(
        num_records=len(records), num_candidates=num_candidates,
        num_matches=num_matches, num_degraded=num_degraded,
        entity_ids=entity_ids, threshold=config.threshold,
        max_candidate_batch=high_water, batches=batches)
    registry.gauge("dedupe.entities").set(result.num_entities)
    registry.gauge("dedupe.records").set(len(records))
    return result


def write_clusters(path: str | Path, result: DedupeResult) -> dict:
    """Write a cluster artifact atomically, in canonical form.

    Canonical means sorted keys, fixed separators and no timings or
    timestamps — two runs over the same input produce byte-identical
    files (the determinism contract the tests enforce).
    """
    payload = {
        "schema": CLUSTERS_SCHEMA,
        "num_records": result.num_records,
        "num_entities": result.num_entities,
        "num_candidates": result.num_candidates,
        "num_matches": result.num_matches,
        "num_degraded": result.num_degraded,
        "threshold": result.threshold,
        "max_candidate_batch": result.max_candidate_batch,
        "entity_ids": result.entity_ids,
        "clusters": {str(k): v for k, v in result.clusters().items()},
    }
    text = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")) + "\n"
    atomic_write_text(Path(path), text)
    return payload


def load_clusters(path: str | Path) -> dict:
    """Read a cluster artifact back."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != CLUSTERS_SCHEMA:
        raise ValueError(
            f"unsupported clusters schema {payload.get('schema')!r}")
    return payload
