"""Blocking benchmark: recall vs. reduction under an enforced gate.

Blocking trades candidate volume against match recall; this benchmark
measures exactly that trade-off and enforces the production floors
(``PAIRS_COMPLETENESS_FLOOR``, ``REDUCTION_RATIO_FLOOR``): on a seeded
100k-record generated catalog, the MinHash-LSH blocker must reach
**pairs-completeness >= 0.95** at **reduction ratio >= 0.99** — i.e.
find at least 95% of true duplicate pairs while pruning at least 99% of
the ~5e9-pair cross product — and an end-to-end ``repro dedupe`` run
over the same catalog must complete while streaming (its high-water
candidate batch bounded by the configured emission batch, evidence the
cross product was never materialized).

A small-scale comparison table also runs all four blockers side by
side, feeding the README trade-off table.  The dedupe section also
records its stage seconds (``block``: the ``blocking.*`` spans;
``score``: the rest of ``dedupe.block_score``, i.e. building, scoring
and unioning the candidate pairs; ``cluster``: ``dedupe.cluster``) and
the process's peak resident set size so far (``peak_rss_mb``, from
``getrusage``; it covers every stage run before it).  Those timings
are single-shot and informational: no gate compares two timed paths.
The report is written through :mod:`repro.perf.harness` to
``BENCH_blocking.json``.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from ..data.blocking import (MinHashLSHBlocker, SortedNeighborhoodBlocker,
                             TfIdfBlocker, TokenBlocker)
from ..obs.tracing import aggregate_spans, default_tracer
from ..perf.harness import Gate, build_report
from .catalog import generate_catalog
from .pipeline import DedupeConfig, dedupe_records
from .similarity import SimilarityEngine

__all__ = ["run_blocking_benchmark", "PAIRS_COMPLETENESS_FLOOR",
           "REDUCTION_RATIO_FLOOR"]

#: Acceptance floors for the 100k-scale MinHash-LSH gate.
PAIRS_COMPLETENESS_FLOOR = 0.95
REDUCTION_RATIO_FLOOR = 0.99
#: The 4-blocker side-by-side scale, the blockers' emission batch and
#: the dedupe match threshold.
COMPARISON_RECORDS = 2_000
CANDIDATE_BATCH = 4096
THRESHOLD = 0.5
#: MinHash-LSH stages timed by their ``blocking.*`` trace spans.
_GATE_STAGES = ("shingle", "signature", "band")


def _gate_blocker(seed: int) -> MinHashLSHBlocker:
    """The tuned gate configuration: 128 perms in 32 bands of 4."""
    return MinHashLSHBlocker(num_permutations=128, band_size=4,
                             seed=seed, shingle_size=3)


def _comparison_blockers(seed: int) -> list[tuple[str, object]]:
    return [
        ("token", TokenBlocker(max_token_frequency=0.05)),
        ("sorted_neighborhood",
         SortedNeighborhoodBlocker("title", window=10)),
        ("tfidf", TfIdfBlocker(top_k=10, threshold=0.2)),
        ("minhash_lsh", _gate_blocker(seed)),
    ]


def _measure(blocker, catalog, candidate_batch: int) -> dict:
    """Stream one blocker over a catalog; quality + timing + volume."""
    gold = catalog.gold_pairs()
    n = len(catalog.records)
    # Pair (i, j) as the int64 key i * n + j, looked up in sorted gold.
    gold_keys = np.sort(np.fromiter((i * n + j for i, j in gold),
                                    dtype=np.int64, count=len(gold)))
    found = 0
    num_candidates = 0
    high_water = 0
    start = time.perf_counter()
    for batch in blocker.iter_candidates(catalog.records,
                                         batch_size=candidate_batch):
        high_water = max(high_water, len(batch))
        num_candidates += len(batch)
        keys = batch.index_a * n + batch.index_b
        at = np.searchsorted(gold_keys, keys)
        hit = at < len(gold_keys)
        found += int(np.count_nonzero(gold_keys[at[hit]] == keys[hit]))
    elapsed = time.perf_counter() - start
    cross = n * (n - 1) // 2
    # Streaming counterpart of evaluate_blocking: candidates are counted
    # and intersected with gold on the fly, never collected into a set.
    completeness = (found / len(gold)) if gold else 1.0
    reduction = (1.0 - num_candidates / cross) if cross else 1.0
    return {
        "pairs_completeness": round(completeness, 6),
        "reduction_ratio": round(reduction, 6),
        "num_candidates": num_candidates,
        "gold_pairs": len(gold),
        "seconds": round(elapsed, 3),
        "max_candidate_batch": high_water,
        "records": n,
        "cross_product": cross,
    }


def run_blocking_benchmark(num_records: int = 100_000, seed: int = 7,
                           smoke: bool = False, log=print) -> dict:
    """Run the full blocking benchmark and return the report dict.

    ``smoke=True`` shrinks both catalogs so the whole thing runs in
    seconds (used by the test suite and ``--smoke`` CLI runs); the
    acceptance block then reports ``enforced: false``.  ``log`` gets a
    line as each stage starts.
    """
    if smoke:
        num_records = 2_000
    comparison_records = 400 if smoke else COMPARISON_RECORDS

    log(f"blocking bench: comparison at {comparison_records} records")
    small = generate_catalog(comparison_records, seed=seed)
    comparison = {name: _measure(blocker, small, CANDIDATE_BATCH)
                  for name, blocker in _comparison_blockers(seed)}

    log(f"blocking bench: MinHash-LSH gate at {num_records} records")
    large = generate_catalog(num_records, seed=seed)
    mark = default_tracer().mark()
    gate = _measure(_gate_blocker(seed), large, CANDIDATE_BATCH)
    spans = aggregate_spans(default_tracer().since(mark))
    gate["stage_seconds"] = {
        stage: round(spans.get(f"blocking.{stage}", {}).get("total", 0.0),
                     3)
        for stage in _GATE_STAGES}

    log("blocking bench: end-to-end dedupe over the gate catalog")
    mark = default_tracer().mark()
    start = time.perf_counter()
    result = dedupe_records(
        large.records, _gate_blocker(seed),
        SimilarityEngine(scorer="jaccard"),
        DedupeConfig(threshold=THRESHOLD, candidate_batch=CANDIDATE_BATCH))
    dedupe_seconds = time.perf_counter() - start
    spans = aggregate_spans(default_tracer().since(mark))
    block = sum(spans.get(f"blocking.{stage}", {}).get("total", 0.0)
                for stage in _GATE_STAGES)
    block_score = spans.get("dedupe.block_score", {}).get("total", 0.0)
    streamed = result.max_candidate_batch <= CANDIDATE_BATCH
    dedupe = {
        "records": result.num_records,
        "candidates": result.num_candidates,
        "matches": result.num_matches,
        "entities": result.num_entities,
        "gold_entities": large.meta["num_entities"],
        "degraded": result.num_degraded,
        "seconds": round(dedupe_seconds, 3),
        "max_candidate_batch": result.max_candidate_batch,
        "candidate_batch_limit": CANDIDATE_BATCH,
        "streamed": streamed,
        "stage_seconds": {
            "block": round(block, 3),
            "score": round(block_score - block, 3),
            "cluster": round(
                spans.get("dedupe.cluster", {}).get("total", 0.0), 3)},
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    gates = [
        Gate("pairs_completeness", gate["pairs_completeness"],
             PAIRS_COMPLETENESS_FLOOR),
        Gate("reduction_ratio", gate["reduction_ratio"],
             REDUCTION_RATIO_FLOOR),
        # 1.0 when the dedupe run's high-water candidate batch stayed
        # within the emission batch: the cross product never existed.
        Gate("streamed", float(streamed), 1.0),
    ]
    config = {"num_records": num_records,
              "comparison_records": comparison_records, "seed": seed,
              "candidate_batch": CANDIDATE_BATCH, "threshold": THRESHOLD}
    return build_report(
        "blocking", smoke=smoke, config=config, gates=gates,
        summary=_summary(config, comparison, gate, dedupe),
        comparison=comparison, gate=gate, dedupe=dedupe)


def _summary(config: dict, comparison: dict, gate: dict,
             dedupe: dict) -> list[str]:
    lines = [f"blocking recall vs. reduction (comparison at "
             f"{config['comparison_records']} records, gate at "
             f"{config['num_records']})"]
    for name, entry in comparison.items():
        lines.append(
            f"  {name:<20} PC {entry['pairs_completeness']:.3f}  "
            f"RR {entry['reduction_ratio']:.4f}  "
            f"{entry['num_candidates']:>8} candidates  "
            f"{entry['seconds']:7.3f}s")
    stages = ", ".join(f"{stage} {seconds}s" for stage, seconds
                       in gate["stage_seconds"].items())
    lines.append(
        f"  gate (minhash_lsh @ {gate['records']} records): "
        f"PC {gate['pairs_completeness']:.4f}, "
        f"RR {gate['reduction_ratio']:.6f}, "
        f"{gate['num_candidates']} candidates in {gate['seconds']}s "
        f"({stages})")
    stages = ", ".join(f"{stage} {seconds}s" for stage, seconds
                       in dedupe["stage_seconds"].items())
    lines.append(
        f"  dedupe: {dedupe['records']} records -> "
        f"{dedupe['entities']} entities (gold {dedupe['gold_entities']}) "
        f"in {dedupe['seconds']}s ({stages}), peak batch "
        f"{dedupe['max_candidate_batch']}/"
        f"{dedupe['candidate_batch_limit']}, peak RSS "
        f"{dedupe['peak_rss_mb']} MB")
    return lines
