"""End-to-end deduplication: blocking, scoring, clustering, benchmark.

The layer that turns "classify given pairs" into "deduplicate a raw
catalog": candidates come from :mod:`repro.data.blocking`, scores from
any ``score_pairs`` engine (the transformer :class:`MatchEngine`, the
:class:`CascadeEngine`, or the model-free :class:`SimilarityEngine`
here), and match edges transitively cluster into stable entity ids.
"""

from .catalog import (CATALOG_SCHEMA, Catalog, catalog_noise_profile,
                      generate_catalog)
from .cluster import (UnionFind, adjusted_rand_index, connected_components,
                      pairwise_scores)
from .pipeline import (CandidatePairs, DedupeConfig, DedupeResult,
                       dedupe_records, load_clusters, write_clusters)
from .similarity import ScoredPairs, SimilarityEngine

__all__ = [
    "Catalog", "generate_catalog", "catalog_noise_profile",
    "CATALOG_SCHEMA",
    "UnionFind", "connected_components", "adjusted_rand_index",
    "pairwise_scores",
    "CandidatePairs", "DedupeConfig", "DedupeResult", "dedupe_records",
    "write_clusters", "load_clusters",
    "ScoredPairs", "SimilarityEngine",
]
