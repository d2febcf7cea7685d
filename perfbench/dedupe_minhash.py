"""``dedupe-minhash``: block → score → cluster over a seeded catalog.

Each pass runs ``dedupe_records`` over the same ``generate_catalog``
records with the blocker and scorer ``repro dedupe`` ships by default
(``MinHashLSHBlocker``, Jaccard ``SimilarityEngine``).  Blocking and
scoring split the work and no model runs, so this is the workload where
the blocker matters and the transformer stack does not.  Passes repeat
the catalog so that the cluster assignment can be checked for being
identical every time; the repeat shares report that reuse.
"""

from __future__ import annotations

import time

from repro.data import MinHashLSHBlocker, evaluate_blocking
from repro.dedupe import (SimilarityEngine, adjusted_rand_index,
                          dedupe_records, generate_catalog)

import harness

#: Records in the catalog every pass deduplicates.
CATALOG_RECORDS = 4000
#: Records in the separate catalog each set-up warms up on.
WARMUP_RECORDS = 300
#: Clusters must beat these against the gold entities.
MIN_F1 = 0.6
MIN_ARI = 0.6


class BlockerProxy:
    """Times the blocker's candidate stream one batch at a time."""

    def __init__(self, blocker, tracer):
        self._blocker = blocker
        self._tracer = tracer
        self.seconds = 0.0
        self.candidates = []

    def iter_candidates(self, records_a, records_b=None,
                        batch_size: int = 2048):
        stream = self._blocker.iter_candidates(records_a, records_b,
                                               batch_size=batch_size)
        while True:
            start = time.perf_counter()
            with self._tracer.span("blocking.iter_candidates"):
                batch = next(stream, None)
            self.seconds += time.perf_counter() - start
            if batch is None:
                return
            self.candidates.extend(batch)
            yield batch


def run(ctx) -> dict:
    catalog = generate_catalog(CATALOG_RECORDS, seed=ctx.seed)
    warmup = generate_catalog(WARMUP_RECORDS, seed=ctx.seed + 10_000)
    gold = catalog.gold_labels()

    setup_seconds = []
    for _ in range(harness.SETUPS):
        start = time.perf_counter()
        blocker = MinHashLSHBlocker()
        engine = SimilarityEngine(scorer="jaccard")
        dedupe_records(warmup.records, blocker, engine)
        setup_seconds.append(time.perf_counter() - start)

    harness.settle()
    times = {False: [], True: []}
    cpus = {False: [], True: []}
    layer_times = {"block": [], "score": []}
    candidates = None
    first = None
    failed = 0
    result = None
    deadline = time.perf_counter() + ctx.seconds
    while (not times[False] or (ctx.traced and not times[True])
           or time.perf_counter() < deadline):
        tracing = ctx.traced and len(times[False]) > len(times[True])
        use_blocker, use_engine = blocker, engine
        if tracing:
            use_blocker = BlockerProxy(blocker, ctx.tracer)
            use_engine = harness.EngineProxy(engine, "dedupe.score_pairs",
                                             ctx.tracer, ctx.stats)
        t0, c0 = time.perf_counter(), harness.cpu_seconds()
        with ctx.tracer.active(tracing), \
                ctx.tracer.span("dedupe.dedupe_records"):
            result = dedupe_records(catalog.records, use_blocker, use_engine)
        times[tracing].append(time.perf_counter() - t0)
        cpus[tracing].append(harness.cpu_seconds() - c0)
        if tracing:
            layer_times["block"].append(use_blocker.seconds)
            layer_times["score"].append(use_engine.seconds)
            candidates = candidates or use_blocker.candidates
        if first is None:
            first = result.entity_ids
        failed += sum(a != b for a, b in zip(first, result.entity_ids))
        failed += result.num_degraded
    passes = len(times[False]) + len(times[True])

    f1 = harness.cluster_f1(result.entity_ids, gold)
    ari = adjusted_rand_index(result.entity_ids, gold)
    pass_ms = [1e3 * t for t in times[False]]
    e2e = {
        "setup_s": harness.setup_time(ctx.import_seconds,
                                      setup_seconds),
        "items_per_s":
            CATALOG_RECORDS * len(times[False]) / sum(times[False]),
        "cpu_ms_per_item":
            1e3 * sum(cpus[False]) / (CATALOG_RECORDS * len(cpus[False])),
        "latency_p50_ms": harness.percentile(pass_ms, 50),
        "latency_p90_ms": harness.percentile(pass_ms, 90),
        "f1": f1,
        "ari": ari,
    }
    texts = [record.text_blob() for record in catalog.records]
    props = {"input.pair_repeat_share": 1 - 1 / passes,
             "input.record_repeat_share": harness.repeat_share(
                 texts * passes),
             "input.candidates_per_record":
                 result.num_candidates / CATALOG_RECORDS}

    layer = {}
    if ctx.traced:
        quality = evaluate_blocking(candidates, catalog.gold_pairs(),
                                    CATALOG_RECORDS)
        block = harness.median(layer_times["block"])
        score = harness.median(layer_times["score"])
        layer = {
            "blocking.candidates_s": block,
            "blocking.candidates": result.num_candidates,
            "blocking.pairs_completeness": quality.pairs_completeness,
            "blocking.reduction_ratio": quality.reduction_ratio,
            "dedupe.score_s": score,
            "dedupe.match_share":
                result.num_matches / max(result.num_candidates, 1),
            "dedupe.cluster_s": harness.median(times[True]) - block - score,
            "trace.overhead_share": harness.median(times[True])
                / harness.median(times[False]) - 1.0,
        }
        ctx.items_traced = CATALOG_RECORDS * len(times[True])

    failed += int(f1 < MIN_F1) + int(ari < MIN_ARI)
    return {"correct": failed == 0, "attempted": CATALOG_RECORDS * passes,
            "failed": failed, "e2e": e2e, "layer": layer, "props": props}
