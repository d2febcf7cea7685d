"""Inference fast path: fused kernels, bucketed batching, tokenizer memo.

Three contracts anchor the whole ``repro.perf`` layer:

1. a model has one forward — with the tape off (inference) it returns
   the same bits as with the tape on (training), in eval mode;
2. gradients flow through the kernel-backed ops, and ``no_grad``
   restores the tape state on every exit path;
3. the bucketed ``match_many`` engine returns the same decisions in the
   same order as the serial path, with per-pair isolation intact.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import load_benchmark, split_dataset
from repro.matching import (EncodedPairs, EntityMatcher, FineTuneConfig,
                            encode_dataset, iter_bucketed)
from repro.nn import is_grad_enabled, no_grad
from repro.obs import MetricsRegistry, default_registry
from repro.perf import (LRUCache, TokenizationCache, is_left_padded,
                        plan_buckets, real_lengths, trim_length)
from repro.perf.bench import run_perf_benchmark
from repro.perf.harness import check_report, write_report
from repro.utils import child_rng

pytestmark = pytest.mark.perf

ARCH_FIXTURES = ["tiny_bert", "tiny_roberta", "tiny_distilbert",
                 "tiny_xlnet"]


@pytest.fixture(scope="module")
def tiny_splits():
    data = load_benchmark("dblp-acm", seed=7, scale=0.04)
    return split_dataset(data, child_rng(7, "split", "dblp-acm"))


@pytest.fixture(scope="module")
def fitted_bert(tiny_settings, tiny_zoo_dir, tiny_splits):
    matcher = EntityMatcher(
        "bert", seed=0, zoo_settings=tiny_settings, zoo_dir=tiny_zoo_dir,
        finetune_config=FineTuneConfig(epochs=1, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(tiny_splits.train)
    return matcher


def _record_pairs(splits, n):
    pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    return [pairs[i % len(pairs)] for i in range(n)]


class TestFusedBitIdentity:
    """Contract 1: tape-on forward == tape-off forward, bitwise."""

    @pytest.mark.parametrize("fixture", ARCH_FIXTURES)
    def test_backbone_output_bit_identical(self, request, fixture,
                                           tiny_splits):
        pretrained = request.getfixturevalue(fixture)
        encoded = encode_dataset(tiny_splits.test, pretrained.tokenizer,
                                 max_length=32)
        ids = encoded.input_ids[:8]
        segs = encoded.segment_ids[:8]
        pads = encoded.pad_masks[:8]

        pretrained.backbone.eval()
        taped = pretrained.backbone(ids, segment_ids=segs, pad_mask=pads)
        assert taped.requires_grad
        with no_grad():
            untaped = pretrained.backbone(
                ids, segment_ids=segs, pad_mask=pads)
        assert not untaped.requires_grad

        assert untaped.data.dtype == taped.data.dtype
        assert np.array_equal(taped.data, untaped.data)


class TestFusedGating:
    """Contract 2: the kernels carry the tape; no_grad unwinds cleanly."""

    def test_gradients_flow_with_fused_globally_on(self, tiny_bert,
                                                   tiny_splits):
        encoded = encode_dataset(tiny_splits.test, tiny_bert.tokenizer,
                                 max_length=32)
        hidden = tiny_bert.backbone(
            encoded.input_ids[:2],
            segment_ids=encoded.segment_ids[:2],
            pad_mask=encoded.pad_masks[:2])
        assert hidden.requires_grad
        hidden.sum().backward()
        grads = [p.grad for p in tiny_bert.backbone.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)
        tiny_bert.backbone.zero_grad()

    def test_no_grad_restored_after_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                assert not is_grad_enabled()
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_decorator_restores_after_exception(self):
        @no_grad()
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            boom()
        assert is_grad_enabled()


class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_hit_rate(self):
        cache = LRUCache(maxsize=4)
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


def _fresh(tokenizer):
    """A newly loaded copy of ``tokenizer``, its memo empty."""
    return type(tokenizer).from_payload(tokenizer.to_payload())


class TestTokenizationCache:
    """Every tokenizer owns one memo, on from construction."""

    TEXT = "entity matching with transformers"

    def test_lookup_memoizes_and_counts(self, tiny_bert):
        tokenizer = _fresh(tiny_bert.tokenizer)
        registry = default_registry()
        hits = registry.counter("perf.token_cache.hits")
        misses = registry.counter("perf.token_cache.misses")
        before = (hits.value, misses.value)
        assert tokenizer.encode(self.TEXT) == tokenizer.encode(self.TEXT)
        assert (tokenizer.memo.hits, tokenizer.memo.misses) == (1, 1)
        assert (hits.value - before[0], misses.value - before[1]) == (1, 1)

    def test_clear_forgets_texts_keeps_words(self, tiny_bert):
        tokenizer = _fresh(tiny_bert.tokenizer)
        calls = []

        def segment(word):
            calls.append(word)
            return [word]

        tokenizer.encode(self.TEXT)
        tokenizer.memo.word("alpha", segment)
        tokenizer.memo.clear()
        assert len(tokenizer.memo) == 0
        tokenizer.encode(self.TEXT)
        assert (tokenizer.memo.hits, tokenizer.memo.misses) == (0, 2)
        tokenizer.memo.word("alpha", segment)
        assert calls == ["alpha"]

    def test_returned_lists_are_isolated(self, tiny_bert):
        tokenizer = _fresh(tiny_bert.tokenizer)
        ids = tokenizer.encode(self.TEXT)
        expected = list(ids)
        ids.pop()  # pair truncation mutates its id lists
        assert tokenizer.encode(self.TEXT) == expected

    def test_eviction_counter(self):
        registry = MetricsRegistry()
        cache = TokenizationCache(maxsize=1, registry=registry)
        cache.lookup("a", lambda text: [1])
        cache.lookup("b", lambda text: [2])
        assert registry.counter("perf.token_cache.evictions").value == 1

    def test_word_map_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.perf.cache._MAX_WORDS", 2)
        cache = TokenizationCache(registry=MetricsRegistry())
        calls = []

        def segment(word):
            calls.append(word)
            return [word]

        for word in ("a", "b", "c", "a"):
            cache.word(word, segment)
        # "c" found the map full and dropped it, so "a" is computed again.
        assert calls == ["a", "b", "c", "a"]

    @pytest.mark.parametrize("fixture", ARCH_FIXTURES)
    def test_cached_encoding_matches_uncached(self, fixture, request):
        tokenizer = _fresh(request.getfixturevalue(fixture).tokenizer)
        plain = tokenizer.vocab.ids(tokenizer.tokenize(self.TEXT))
        miss = tokenizer.encode(self.TEXT)
        hit = tokenizer.encode(self.TEXT)
        assert plain == miss == hit
        assert (tokenizer.memo.hits, tokenizer.memo.misses) == (1, 1)
        first = tokenizer.encode_pair(self.TEXT, "a pair of records", 16)
        again = tokenizer.encode_pair(self.TEXT, "a pair of records", 16)
        for name in ("input_ids", "segment_ids", "pad_mask"):
            np.testing.assert_array_equal(getattr(first, name),
                                          getattr(again, name))
        assert first.cls_index == again.cls_index


class TestBucketing:
    def test_plan_buckets_is_a_permutation(self, rng):
        lengths = rng.integers(1, 33, size=57)
        buckets = plan_buckets(lengths, batch_size=8)
        flat = np.concatenate(buckets)
        assert sorted(flat.tolist()) == list(range(57))
        # Within the sorted order, lengths are non-decreasing.
        assert (np.diff(lengths[flat]) >= 0).all()

    def test_plan_buckets_stable_for_ties(self):
        buckets = plan_buckets(np.array([5, 5, 5, 5]), batch_size=2)
        assert [b.tolist() for b in buckets] == [[0, 1], [2, 3]]

    def test_real_lengths_and_trim(self):
        pads = np.array([[False, False, True, True],
                         [False, False, False, True]])
        assert real_lengths(pads).tolist() == [2, 3]
        assert trim_length(pads) == 3
        assert not is_left_padded(pads)
        assert is_left_padded(pads[:, ::-1])

    def test_iter_bucketed_trims_right_padded(self):
        pads = np.zeros((4, 8), dtype=bool)
        pads[:, 4:] = True  # every row: 4 real tokens, 4 pads
        encoded = EncodedPairs(
            np.arange(32).reshape(4, 8), np.zeros((4, 8), dtype=np.int64),
            pads, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        batches = list(iter_bucketed(encoded, batch_size=2))
        assert len(batches) == 2
        for indices, batch in batches:
            assert batch.input_ids.shape == (2, 4)
            assert not batch.pad_masks.any()

    def test_iter_bucketed_keeps_left_padded_width(self):
        pads = np.zeros((3, 8), dtype=bool)
        pads[:, :3] = True  # XLNet-style: padding on the left
        encoded = EncodedPairs(
            np.arange(24).reshape(3, 8), np.zeros((3, 8), dtype=np.int64),
            pads, np.full(3, 7, dtype=np.int64),
            np.zeros(3, dtype=np.int64))
        for indices, batch in iter_bucketed(encoded, batch_size=2):
            assert batch.input_ids.shape[1] == 8

    def test_iter_bucketed_empty(self):
        encoded = EncodedPairs(
            np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4), np.int64),
            np.zeros((0, 4), dtype=bool), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64))
        assert list(iter_bucketed(encoded, batch_size=4)) == []


class TestMatchManyFast:
    """Contract 3: bucketed engine == serial engine, order preserved."""

    def test_fast_matches_serial(self, fitted_bert, tiny_splits):
        pairs = _record_pairs(tiny_splits, 24)
        serial = fitted_bert.match_many(pairs, fast=False)
        fast = fitted_bert.match_many(pairs, fast=True, batch_size=7)

        assert [o.index for o in fast] == list(range(len(pairs)))
        assert [o.matched for o in fast] == [o.matched for o in serial]
        assert not any(o.degraded for o in fast)
        np.testing.assert_allclose(
            [o.probability for o in fast],
            [o.probability for o in serial], atol=1e-5)

    def test_overridden_match_probability_routes_serial(self, fitted_bert,
                                                        tiny_splits):
        pairs = _record_pairs(tiny_splits, 3)
        fitted_bert.match_probability = lambda a, b: 0.75
        try:
            outcomes = fitted_bert.match_many(pairs)
        finally:
            del fitted_bert.match_probability
        assert all(o.probability == 0.75 and o.matched for o in outcomes)

    def test_encode_failure_degrades_only_that_pair(self, fitted_bert,
                                                    tiny_splits):
        pairs = _record_pairs(tiny_splits, 5) + [(object(), object())]
        outcomes = fitted_bert.match_many(pairs, fast=True,
                                          fallback=False)
        assert outcomes[-1].degraded and not outcomes[-1].matched
        assert outcomes[-1].error
        assert not any(o.degraded for o in outcomes[:-1])

    def test_forward_failure_retries_per_pair(self, fitted_bert,
                                              tiny_splits, monkeypatch):
        pairs = _record_pairs(tiny_splits, 6)
        classifier = fitted_bert._result.classifier
        real = type(classifier).predict_proba
        calls = {"n": 0}

        def flaky(self, input_ids, **kwargs):
            calls["n"] += 1
            if len(input_ids) > 1:  # poison every *batched* forward
                raise RuntimeError("batch blew up")
            return real(self, input_ids, **kwargs)

        monkeypatch.setattr(type(classifier), "predict_proba", flaky)
        outcomes = fitted_bert.match_many(pairs, fast=True, batch_size=6)
        assert not any(o.degraded for o in outcomes)
        assert calls["n"] == 7  # 1 failed batch + 6 single-row retries


class TestBenchReport:
    def test_smoke_report_schema_and_consistency(self, tiny_zoo_dir,
                                                 tmp_path):
        report = run_perf_benchmark(archs=("bert",), smoke=True,
                                    zoo_dir=tiny_zoo_dir)
        assert check_report(report) == []
        assert report["smoke"] is True
        entry = report["architectures"]["bert"]
        assert entry["decision_agreement"] == 1.0
        assert entry["fast_pairs_per_sec"] > 0
        gates = {gate["name"]: gate
                 for gate in report["acceptance"]["gates"]}
        assert gates["bert.decision_agreement"]["passed"]
        assert gates["bert.speedup"]["bound"] == 2.0
        assert gates["bert.speedup"]["interval"] is not None
        assert set(gates) == {"bert.speedup", "bert.decision_agreement"}
        path = write_report(report, tmp_path / "BENCH_perf.json")
        assert check_report(json.loads(path.read_text())) == []

    def test_validate_report_flags_gaps(self):
        problems = check_report({"benchmark": "perf"})
        assert any("acceptance" in p for p in problems)
        assert any("schema" in p for p in problems)