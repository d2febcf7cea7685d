"""Blocking benchmark: recall vs. reduction under an enforced gate.

Blocking trades candidate volume against match recall; this benchmark
measures exactly that trade-off and enforces the production floor
(``BlockingGates``): on a seeded 100k-record generated catalog, the
MinHash-LSH blocker must reach **pairs-completeness >= 0.95** at
**reduction ratio >= 0.99** — i.e. find at least 95% of true duplicate
pairs while pruning at least 99% of the ~5e9-pair cross product — and
an end-to-end ``repro dedupe`` run over the same catalog must complete
while streaming (its high-water candidate batch bounded by the
configured emission batch, evidence the cross product was never
materialized).

A small-scale comparison table also runs all four blockers side by
side, feeding the README trade-off table.  The dedupe section also
records its stage seconds (``block``: the ``blocking.*`` spans;
``score``: the rest of ``dedupe.block_score``, i.e. building, scoring
and unioning the candidate pairs; ``cluster``: ``dedupe.cluster``) and
the process's peak resident set size so far (``peak_rss_mb``, from
``getrusage``; it covers every stage run before it).  The report is
written to ``BENCH_blocking.json`` with ``"schema": 1``.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data.blocking import (MinHashLSHBlocker, SortedNeighborhoodBlocker,
                             TfIdfBlocker, TokenBlocker)
from ..obs.tracing import aggregate_spans, default_tracer
from ..utils import atomic_write_text
from .catalog import generate_catalog
from .pipeline import DedupeConfig, dedupe_records
from .similarity import SimilarityEngine

__all__ = ["BlockingGates", "BlockingBenchConfig",
           "run_blocking_benchmark", "validate_report", "write_report"]

SCHEMA_VERSION = 1
_REPORT_KEYS = ("benchmark", "schema", "smoke", "config", "comparison",
                "gate", "dedupe", "acceptance")
#: MinHash-LSH stages timed by their ``blocking.*`` trace spans.
_GATE_STAGES = ("shingle", "signature", "band")


@dataclass(frozen=True)
class BlockingGates:
    """Acceptance floors for the 100k-scale MinHash-LSH gate."""

    pairs_completeness: float = 0.95
    reduction_ratio: float = 0.99

    def as_dict(self) -> dict:
        return {"pairs_completeness": self.pairs_completeness,
                "reduction_ratio": self.reduction_ratio}


@dataclass(frozen=True)
class BlockingBenchConfig:
    """Benchmark shape knobs."""

    num_records: int = 100_000     # gate-scale catalog
    comparison_records: int = 2_000  # 4-blocker side-by-side scale
    seed: int = 7
    candidate_batch: int = 4096
    threshold: float = 0.5
    gates: BlockingGates = field(default_factory=BlockingGates)


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


def run_blocking_benchmark(config: BlockingBenchConfig | None = None,
                           smoke: bool = False,
                           log=print) -> dict:
    """Run the full blocking benchmark and return the report dict.

    ``smoke=True`` shrinks both catalogs so the whole thing runs in
    seconds (used by the test suite and ``--smoke`` CLI runs); the
    acceptance block then reports ``enforced: false``.
    """
    config = config if config is not None else BlockingBenchConfig()
    num_records = 2_000 if smoke else config.num_records
    comparison_records = 400 if smoke else config.comparison_records

    log(f"blocking bench: comparison at {comparison_records} records")
    small = generate_catalog(comparison_records, seed=config.seed)
    comparison = {}
    for name, blocker in _comparison_blockers(config.seed):
        comparison[name] = _measure(blocker, small, config.candidate_batch)
        log(f"  {name}: PC {comparison[name]['pairs_completeness']:.3f} "
            f"RR {comparison[name]['reduction_ratio']:.4f} "
            f"({comparison[name]['num_candidates']} candidates, "
            f"{comparison[name]['seconds']}s)")

    log(f"blocking bench: MinHash-LSH gate at {num_records} records")
    large = generate_catalog(num_records, seed=config.seed)
    mark = default_tracer().mark()
    gate = _measure(_gate_blocker(config.seed), large,
                    config.candidate_batch)
    spans = aggregate_spans(default_tracer().since(mark))
    gate["stage_seconds"] = {
        stage: round(spans.get(f"blocking.{stage}", {}).get("total", 0.0),
                     3)
        for stage in _GATE_STAGES}
    stages = ", ".join(f"{stage} {seconds}s" for stage, seconds
                       in gate["stage_seconds"].items())
    log(f"  gate: PC {gate['pairs_completeness']:.4f} "
        f"RR {gate['reduction_ratio']:.6f} in {gate['seconds']}s "
        f"({stages})")

    log("blocking bench: end-to-end dedupe over the gate catalog")
    mark = default_tracer().mark()
    start = time.perf_counter()
    result = dedupe_records(
        large.records, _gate_blocker(config.seed),
        SimilarityEngine(scorer="jaccard"),
        DedupeConfig(threshold=config.threshold,
                     candidate_batch=config.candidate_batch))
    dedupe_seconds = time.perf_counter() - start
    spans = aggregate_spans(default_tracer().since(mark))
    block = sum(spans.get(f"blocking.{stage}", {}).get("total", 0.0)
                for stage in _GATE_STAGES)
    block_score = spans.get("dedupe.block_score", {}).get("total", 0.0)
    dedupe_stages = {
        "block": round(block, 3),
        "score": round(block_score - block, 3),
        "cluster": round(spans.get("dedupe.cluster", {}).get("total", 0.0),
                         3)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    streaming_ok = result.max_candidate_batch <= config.candidate_batch
    dedupe = {
        "records": result.num_records,
        "candidates": result.num_candidates,
        "matches": result.num_matches,
        "entities": result.num_entities,
        "gold_entities": large.meta["num_entities"],
        "degraded": result.num_degraded,
        "seconds": round(dedupe_seconds, 3),
        "max_candidate_batch": result.max_candidate_batch,
        "candidate_batch_limit": config.candidate_batch,
        "streamed": streaming_ok,
        "stage_seconds": dedupe_stages,
        "peak_rss_mb": round(peak_rss_mb, 1),
    }
    stages = ", ".join(f"{stage} {seconds}s" for stage, seconds
                       in dedupe_stages.items())
    log(f"  dedupe: {result.num_entities} entities from "
        f"{result.num_records} records in {dedupe_seconds:.1f}s "
        f"({stages}; peak RSS {peak_rss_mb:.0f} MB) "
        f"(gold {large.meta['num_entities']})")

    gates = config.gates
    passed = (gate["pairs_completeness"] >= gates.pairs_completeness
              and gate["reduction_ratio"] >= gates.reduction_ratio
              and streaming_ok)
    report = {
        "benchmark": "blocking",
        "schema": SCHEMA_VERSION,
        "smoke": bool(smoke),
        "config": {"num_records": num_records,
                   "comparison_records": comparison_records,
                   "seed": config.seed,
                   "candidate_batch": config.candidate_batch,
                   "threshold": config.threshold,
                   "gates": gates.as_dict()},
        "comparison": comparison,
        "gate": gate,
        "dedupe": dedupe,
        "acceptance": {
            "enforced": not smoke,
            "passed": bool(passed),
            "pairs_completeness": gate["pairs_completeness"],
            "pairs_completeness_floor": gates.pairs_completeness,
            "reduction_ratio": gate["reduction_ratio"],
            "reduction_ratio_floor": gates.reduction_ratio,
            "streamed": streaming_ok,
        },
    }
    return report


def validate_report(report: dict) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems = []
    for key in _REPORT_KEYS:
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if report.get("benchmark") != "blocking":
        problems.append("benchmark field must be 'blocking'")
    if report.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema field must be {SCHEMA_VERSION}, "
                        f"got {report.get('schema')!r}")
    acceptance = report.get("acceptance", {})
    for key in ("enforced", "passed", "pairs_completeness",
                "reduction_ratio", "streamed"):
        if key not in acceptance:
            problems.append(f"missing acceptance key {key!r}")
    return problems


def write_report(report: dict, path: str | Path) -> None:
    """Validate and atomically write the benchmark report."""
    problems = validate_report(report)
    if problems:
        raise ValueError("invalid blocking report: " + "; ".join(problems))
    atomic_write_text(Path(path), json.dumps(report, indent=2,
                                             sort_keys=True) + "\n")
