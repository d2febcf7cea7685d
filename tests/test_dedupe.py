"""End-to-end deduplication: clustering, catalogs, pipeline, artifacts.

The golden test recovers a seeded catalog's gold clustering exactly
(adjusted Rand 1.0); the determinism test demands byte-identical
cluster artifacts across runs.  Union-find is pinned to the transitive
closure of the edge set by an independent BFS oracle under hypothesis.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import MinHashLSHBlocker, TokenBlocker
from repro.data.generators._base import NoiseProfile
from repro.dedupe import (Catalog, DedupeConfig, DedupeResult,
                          SimilarityEngine, UnionFind,
                          adjusted_rand_index, catalog_noise_profile,
                          connected_components, dedupe_records,
                          generate_catalog, load_clusters, write_clusters)
from repro.dedupe.similarity import _jaccard
from repro.obs import MetricsRegistry
from repro.resilience.fallback import MatchOutcome

pytestmark = pytest.mark.blocking

ROOT = Path(__file__).resolve().parent.parent

#: The golden configuration: a gentle-noise catalog whose gold
#: clustering the blend scorer recovers exactly at threshold 0.55
#: (verified to hold with margin on both neighboring thresholds).
GOLDEN_PROFILE = NoiseProfile(p_synonym=0.1, p_typo=0.01,
                              p_drop_word=0.03, p_missing_attr=0.0,
                              p_code_drift=0.2)
GOLDEN_SEED = 2
GOLDEN_THRESHOLD = 0.55


def _golden_run(tmp_path, name):
    catalog = generate_catalog(150, seed=GOLDEN_SEED,
                               profile=GOLDEN_PROFILE)
    result = dedupe_records(
        catalog.records, MinHashLSHBlocker(),
        SimilarityEngine(scorer="blend"),
        DedupeConfig(threshold=GOLDEN_THRESHOLD),
        registry=MetricsRegistry())
    path = tmp_path / name
    write_clusters(path, result)
    return catalog, result, path


def _bfs_closure(size, edges):
    """Independent transitive-closure oracle: BFS per component."""
    adjacency = {i: set() for i in range(size)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    labels = [None] * size
    for start in range(size):
        if labels[start] is not None:
            continue
        frontier = [start]
        component = []
        while frontier:
            node = frontier.pop()
            if labels[node] is not None:
                continue
            labels[node] = start  # start is the minimum unvisited index
            component.append(node)
            frontier.extend(adjacency[node])
    return labels


class TestUnionFind:
    def test_initially_disjoint(self):
        forest = UnionFind(4)
        assert forest.labels() == [0, 1, 2, 3]
        assert not forest.connected(0, 1)

    def test_union_merges(self):
        forest = UnionFind(4)
        assert forest.union(1, 3) is True
        assert forest.union(3, 1) is False  # already joined
        assert forest.connected(1, 3)
        assert forest.labels() == [0, 1, 2, 1]

    def test_labels_are_min_index(self):
        forest = UnionFind(5)
        forest.union(4, 2)
        forest.union(2, 3)
        assert forest.labels() == [0, 1, 2, 2, 2]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 30),
           data=st.data())
    def test_clustering_equals_transitive_closure(self, size, data):
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=40))
        assert connected_components(size, edges) == _bfs_closure(size,
                                                                 edges)

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 20),
           seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_labels_independent_of_edge_order(self, size, seed, data):
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=30))
        shuffled = list(edges)
        np.random.default_rng(seed).shuffle(shuffled)
        assert (connected_components(size, edges)
                == connected_components(size, shuffled))


class TestAdjustedRandIndex:
    def test_identical_clusterings(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_relabeled_clusterings_still_perfect(self):
        assert adjusted_rand_index([0, 0, 1, 1], [7, 7, 3, 3]) == 1.0

    def test_disagreement_below_one(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) < 1.0

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0], [0, 1])

    def test_trivial_sizes(self):
        assert adjusted_rand_index([], []) == 1.0
        assert adjusted_rand_index([0], [5]) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(st.integers(0, 5), min_size=2, max_size=30),
           other=st.data())
    def test_bounded_and_symmetric(self, labels, other):
        second = other.draw(st.lists(st.integers(0, 5),
                                     min_size=len(labels),
                                     max_size=len(labels)))
        ari = adjusted_rand_index(labels, second)
        assert -1.0 <= ari <= 1.0
        assert ari == pytest.approx(adjusted_rand_index(second, labels))


class TestGenerateCatalog:
    def test_deterministic_for_seed(self):
        a = generate_catalog(80, seed=9)
        b = generate_catalog(80, seed=9)
        assert [r.values for r in a.records] == [r.values
                                                 for r in b.records]
        assert a.entity_ids == b.entity_ids

    def test_size_and_metadata(self):
        catalog = generate_catalog(120, seed=1)
        assert len(catalog) == 120
        assert catalog.meta["num_records"] == 120
        assert catalog.meta["num_entities"] == len(set(catalog.entity_ids))

    def test_zero_duplicate_rate_all_unique(self):
        catalog = generate_catalog(50, seed=3, duplicate_rate=0.0)
        assert catalog.meta["num_entities"] == 50
        assert catalog.gold_pairs() == set()

    def test_gold_pairs_are_ordered_views_of_same_entity(self):
        catalog = generate_catalog(100, seed=4)
        pairs = catalog.gold_pairs()
        assert pairs
        for i, j in pairs:
            assert i < j
            assert catalog.entity_ids[i] == catalog.entity_ids[j]

    def test_gold_labels_match_entity_partition(self):
        catalog = generate_catalog(100, seed=4)
        assert adjusted_rand_index(catalog.gold_labels(),
                                   catalog.entity_ids) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_catalog(0)
        with pytest.raises(ValueError):
            generate_catalog(10, duplicate_rate=1.0)
        with pytest.raises(ValueError):
            generate_catalog(10, max_duplicates=0)


class TestSimilarityEngine:
    def test_identical_records_score_high(self):
        record = {"title": "apexon phone zx100 black"}
        outcomes = SimilarityEngine().score_pairs([(record, record)])
        assert outcomes[0].probability > 0.9
        assert outcomes[0].matched

    def test_disjoint_records_score_low(self):
        outcomes = SimilarityEngine(scorer="jaccard").score_pairs(
            [({"title": "aaa bbb"}, {"title": "ccc ddd"})])
        assert outcomes[0].probability == 0.0
        assert not outcomes[0].matched

    def test_keys_become_outcome_indices(self):
        record = {"title": "x"}
        outcomes = SimilarityEngine().score_pairs(
            [(record, record)] * 3, keys=[7, 5, 9])
        assert [o.index for o in outcomes] == [7, 5, 9]

    def test_key_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            SimilarityEngine().score_pairs([({"t": "a"}, {"t": "b"})],
                                           keys=[1, 2])

    def test_per_pair_failure_degrades_not_raises(self):
        good = {"title": "fine"}
        outcomes = SimilarityEngine().score_pairs(
            [(good, good), (None, good)])
        assert not outcomes[0].degraded
        assert outcomes[1].degraded
        assert outcomes[1].error
        assert outcomes[1].probability == 0.0

    def test_unknown_scorer_rejected(self):
        with pytest.raises(ValueError):
            SimilarityEngine(scorer="cosine")

    @pytest.mark.parametrize("scorer", ["jaccard", "blend"])
    def test_memoized_outcomes_equal_per_pair_probability(self, scorer):
        # Pairs repeat the same record objects (the memo's hit path) and
        # mix in plain mappings; every outcome must equal the unmemoized
        # per-pair probability bit for bit.
        records = generate_catalog(40, seed=9).records
        mapping = {"title": "apexon phone zx100", "brand": "apexon"}
        pairs = ([(records[i], records[(7 * i) % 40]) for i in range(40)]
                 + [(records[i], records[i + 1]) for i in range(39)]
                 + [(mapping, records[3]), (records[3], mapping),
                    (mapping, mapping)])
        engine = SimilarityEngine(scorer=scorer)
        outcomes = engine.score_pairs(pairs, threshold=0.4)
        assert len(outcomes) == len(pairs)
        for outcome, (a, b) in zip(outcomes, pairs):
            expected = engine._probability(a, b)
            assert outcome.probability == expected
            assert outcome.matched == (expected >= 0.4)
            assert not outcome.degraded

    @settings(max_examples=200, deadline=None)
    @given(tokens_a=st.sets(st.text(alphabet="abcd", max_size=2),
                            max_size=8),
           tokens_b=st.sets(st.text(alphabet="abcd", max_size=2),
                            max_size=8))
    def test_jaccard_equals_set_union_form(self, tokens_a, tokens_b):
        union = len(tokens_a | tokens_b)
        expected = len(tokens_a & tokens_b) / union if union else 0.0
        assert _jaccard(tokens_a, tokens_b) == expected
        assert _jaccard(tokens_b, tokens_a) == expected

    @pytest.mark.parametrize("scorer", ["jaccard", "blend"])
    def test_failing_entity_degrades_only_its_pairs(self, scorer):
        good = {"title": "apexon phone zx100"}
        other = {"title": "apexon phone zx200"}
        engine = SimilarityEngine(scorer=scorer)
        try:
            engine._probability(None, good)
        except Exception as error:
            expected_error = f"{type(error).__name__}: {error}"
        pairs = [(good, other), (None, good), (other, good),
                 (good, None), (None, None), (good, good)]
        outcomes = engine.score_pairs(pairs)
        assert [o.degraded for o in outcomes] == [False, True, False,
                                                  True, True, False]
        for outcome, (a, b) in zip(outcomes, pairs):
            if outcome.degraded:
                assert outcome.error == expected_error
                assert outcome.probability == 0.0
            else:
                assert outcome.probability == engine._probability(a, b)


class TestDedupePipeline:
    def _run(self, threshold=0.5, **kwargs):
        catalog = generate_catalog(200, seed=6)
        registry = MetricsRegistry()
        result = dedupe_records(
            catalog.records, MinHashLSHBlocker(),
            SimilarityEngine(scorer="jaccard"),
            DedupeConfig(threshold=threshold, **kwargs),
            registry=registry)
        return catalog, result, registry

    def test_entity_ids_cover_every_record(self):
        catalog, result, _ = self._run()
        assert len(result.entity_ids) == len(catalog)
        assert result.num_records == len(catalog)

    def test_clusters_partition_records(self):
        _, result, _ = self._run()
        members = [i for cluster in result.clusters().values()
                   for i in cluster]
        assert sorted(members) == list(range(result.num_records))

    def test_streaming_high_water_bounded(self):
        _, result, _ = self._run(candidate_batch=64)
        assert 0 < result.max_candidate_batch <= 64
        assert result.batches >= result.num_candidates // 64

    def test_metrics_recorded(self):
        _, result, registry = self._run()
        snapshot = registry.snapshot()
        assert (snapshot["blocking.candidates"]["value"]
                == result.num_candidates)
        assert (snapshot["dedupe.pairs_scored"]["value"]
                == result.num_candidates)
        assert snapshot["dedupe.entities"]["value"] == result.num_entities

    def test_progress_callback_invoked(self):
        catalog = generate_catalog(100, seed=6)
        calls = []
        dedupe_records(catalog.records, MinHashLSHBlocker(),
                       SimilarityEngine(scorer="jaccard"),
                       DedupeConfig(candidate_batch=32),
                       registry=MetricsRegistry(),
                       cb=lambda batch, scored: calls.append((batch,
                                                              scored)))
        assert calls
        assert [batch for batch, _ in calls] == list(range(len(calls)))

    def test_matched_pairs_share_entity(self):
        # Transitivity: every accepted match edge ends up intra-cluster.
        catalog = generate_catalog(150, seed=8)
        blocker = MinHashLSHBlocker()
        engine = SimilarityEngine(scorer="jaccard")
        result = dedupe_records(catalog.records, blocker, engine,
                                DedupeConfig(threshold=0.6),
                                registry=MetricsRegistry())
        for batch in blocker.iter_candidates(catalog.records):
            pairs = [(catalog.records[c.index_a],
                      catalog.records[c.index_b]) for c in batch]
            for candidate, outcome in zip(
                    batch, engine.score_pairs(pairs, threshold=0.6)):
                if outcome.matched:
                    assert (result.entity_ids[candidate.index_a]
                            == result.entity_ids[candidate.index_b])

    def test_blocker_stages_nest_under_block_score(self):
        # The scorer opens its own span per batch: a blocker span left
        # open across a yield would adopt it as a child.
        from repro.obs.tracing import default_tracer, trace

        class TracedEngine(SimilarityEngine):
            def score_pairs(self, pairs, **kwargs):
                with trace("score"):
                    return super().score_pairs(pairs, **kwargs)

        tracer = default_tracer()
        mark = tracer.mark()
        dedupe_records(generate_catalog(100, seed=6).records,
                       MinHashLSHBlocker(num_permutations=32),
                       TracedEngine(scorer="jaccard"),
                       DedupeConfig(candidate_batch=16),
                       registry=MetricsRegistry())
        (root,) = tracer.since(mark)
        (block_score,) = [c for c in root.children
                          if c.name == "dedupe.block_score"]
        stages = [c for c in block_score.children if c.name != "score"]
        assert [c.name for c in stages] == (
            ["blocking.shingle", "blocking.signature"]
            + ["blocking.band"] * 8)
        assert [c.attrs["band"] for c in stages[2:]] == list(range(8))
        assert sum(c.name == "score" for c in block_score.children) > 1
        for child in block_score.children:
            assert child.end is not None
            if child.name != "score":
                assert not child.children

    def test_degraded_pairs_are_counted_and_never_unioned(self):
        catalog = generate_catalog(200, seed=6)
        blocker = MinHashLSHBlocker()
        config = DedupeConfig(threshold=0.5, candidate_batch=64)

        class DegradingEngine(SimilarityEngine):
            """Degrades every fifth key of each batch to unmatched."""

            def score_pairs(self, pairs, keys=None, **kwargs):
                outcomes = super().score_pairs(pairs, keys=keys, **kwargs)
                return [MatchOutcome(index=o.index, probability=0.0,
                                     matched=False, degraded=True,
                                     error="chosen")
                        if o.index % 5 == 0 else o for o in outcomes]

        registry = MetricsRegistry()
        result = dedupe_records(catalog.records, blocker,
                                DegradingEngine(scorer="jaccard"), config,
                                registry=registry)
        candidates = blocker.candidates(catalog.records)
        chosen = [k % config.candidate_batch % 5 == 0
                  for k in range(len(candidates))]
        scores = SimilarityEngine(scorer="jaccard").score_pairs(
            [(catalog.records[c.index_a], catalog.records[c.index_b])
             for c in candidates], threshold=config.threshold)
        kept = [(c.index_a, c.index_b)
                for c, o, degraded in zip(candidates, scores, chosen)
                if o.matched and not degraded]
        dropped = sum(o.matched and degraded
                      for o, degraded in zip(scores, chosen))
        assert result.num_degraded == sum(chosen) > 0
        assert (registry.snapshot()["dedupe.degraded"]["value"]
                == sum(chosen))
        assert result.num_matches == len(kept)
        assert result.entity_ids == connected_components(
            len(catalog.records), kept)
        # The degraded pairs held matches: leaving them out must show.
        assert dropped > 0
        baseline = dedupe_records(catalog.records, blocker,
                                  SimilarityEngine(scorer="jaccard"),
                                  config, registry=MetricsRegistry())
        assert result.entity_ids != baseline.entity_ids

    def test_pinned_cluster_artifact_digest(self, tmp_path):
        # sha256 of the write_clusters artifact, taken from the per-pair
        # candidate stream (CandidatePair lists) and per-outcome union.
        result = dedupe_records(generate_catalog(2000, seed=0).records,
                                MinHashLSHBlocker(),
                                SimilarityEngine(scorer="jaccard"),
                                registry=MetricsRegistry())
        path = tmp_path / "clusters.json"
        write_clusters(path, result)
        assert result.num_candidates == 4258
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "440b022186f01db7718578e9480d8ec02edd99ed60d4dccfc0bdf8a1d0af5eba")

    def test_works_with_token_blocker(self):
        catalog = generate_catalog(100, seed=6)
        result = dedupe_records(catalog.records,
                                TokenBlocker(max_token_frequency=0.1),
                                SimilarityEngine(scorer="jaccard"),
                                registry=MetricsRegistry())
        assert result.num_entities <= result.num_records

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DedupeConfig(threshold=1.5)
        with pytest.raises(ValueError):
            DedupeConfig(candidate_batch=0)


class TestGoldenEndToEnd:
    def test_recovers_gold_clustering_exactly(self, tmp_path):
        catalog, result, _ = _golden_run(tmp_path, "clusters.json")
        assert adjusted_rand_index(result.entity_ids,
                                   catalog.gold_labels()) == 1.0
        assert result.num_entities == catalog.meta["num_entities"]

    def test_two_runs_byte_identical(self, tmp_path):
        _, _, path_a = _golden_run(tmp_path, "a.json")
        _, _, path_b = _golden_run(tmp_path, "b.json")
        assert path_a.read_bytes() == path_b.read_bytes()


class TestClusterArtifacts:
    def test_roundtrip(self, tmp_path):
        _, result, path = _golden_run(tmp_path, "clusters.json")
        payload = load_clusters(path)
        assert payload["entity_ids"] == result.entity_ids
        assert payload["num_entities"] == result.num_entities
        assert payload["clusters"][str(result.entity_ids[0])]

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError):
            load_clusters(path)

    def test_artifact_is_canonical_json(self, tmp_path):
        _, _, path = _golden_run(tmp_path, "clusters.json")
        text = path.read_text()
        payload = json.loads(text)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":")) + "\n"
        assert text == canonical


class TestBenchSmoke:
    def test_smoke_report_valid_and_gated(self):
        from repro.dedupe.bench import run_blocking_benchmark
        from repro.perf.harness import check_report
        report = run_blocking_benchmark(smoke=True, log=lambda *_: None)
        assert check_report(report) == []
        assert report["acceptance"]["enforced"] is False
        assert [gate["name"] for gate in report["acceptance"]["gates"]] \
            == ["pairs_completeness", "reduction_ratio", "streamed"]
        assert set(report["comparison"]) == {"token",
                                             "sorted_neighborhood",
                                             "tfidf", "minhash_lsh"}
        # smoke scale already clears the gate floors
        assert report["acceptance"]["passed"] is True
        assert report["dedupe"]["streamed"] is True
        stages = report["gate"]["stage_seconds"]
        assert set(stages) == {"shingle", "signature", "band"}
        assert all(seconds > 0.0 for seconds in stages.values())
        assert sum(stages.values()) <= report["gate"]["seconds"] + 0.01
        dedupe = report["dedupe"]
        assert set(dedupe["stage_seconds"]) == {"block", "score",
                                                "cluster"}
        assert all(seconds >= 0.0
                   for seconds in dedupe["stage_seconds"].values())
        assert sum(dedupe["stage_seconds"].values()) <= (
            dedupe["seconds"] + 0.01)
        assert dedupe["peak_rss_mb"] > 0.0

    def test_measure_counts_gold_like_evaluate_blocking(self):
        from repro.data import evaluate_blocking
        from repro.dedupe.bench import _measure
        catalog = generate_catalog(300, seed=4)
        blocker = MinHashLSHBlocker(num_permutations=32, band_size=2)
        measured = _measure(blocker, catalog, candidate_batch=50)
        quality = evaluate_blocking(blocker.candidates(catalog.records),
                                    catalog.gold_pairs(), 300)
        assert measured["pairs_completeness"] == round(
            quality.pairs_completeness, 6)
        assert measured["num_candidates"] == quality.num_candidates

    def test_write_report_rejects_invalid(self, tmp_path):
        from repro.perf.harness import write_report
        with pytest.raises(ValueError):
            write_report({"benchmark": "blocking"},
                         tmp_path / "bad.json")


class TestMatchEngineIntegration:
    def test_dedupe_through_transformer_engine(self, tiny_bert):
        from repro.data import load_benchmark, split_dataset
        from repro.matching import EntityMatcher, FineTuneConfig
        from repro.utils import child_rng
        data = load_benchmark("dblp-acm", seed=7, scale=0.04)
        splits = split_dataset(data, child_rng(7, "split", "dblp-acm"))
        matcher = EntityMatcher(
            "bert", pretrained=tiny_bert,
            finetune_config=FineTuneConfig(epochs=1, max_length_cap=32))
        matcher.fit(splits.train, splits.test)
        catalog = generate_catalog(30, seed=2, profile=GOLDEN_PROFILE)
        result = dedupe_records(catalog.records, MinHashLSHBlocker(),
                                matcher.engine(),
                                DedupeConfig(threshold=0.5),
                                registry=MetricsRegistry())
        assert len(result.entity_ids) == len(catalog)
        assert result.num_candidates > 0


class TestPerfbenchContract:
    def test_dedupe_minhash_traced_run(self):
        # The benchmark harness proxies the blocker (list.extend of each
        # batch) and the engine; a short traced run pins that contract.
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "dedupe-minhash", "--seed", "1", "--seconds", "1",
             "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr[-2000:]
        report = json.loads(run.stdout.strip().splitlines()[-1])
        assert report["correct"] is True
        assert report["metrics"]["blocking.candidates"]["value"] > 0
