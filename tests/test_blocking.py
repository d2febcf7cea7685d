"""Blocking: the candidate-generation family behind ``repro dedupe``.

Covers the original token / sorted-neighborhood blockers, the TF-IDF
cosine and MinHash-LSH additions, the streaming ``Blocker`` protocol
(linkage and self-join), and the hypothesis property suite: determinism,
permutation invariance up to index relabeling, the analytic (b, r)
collision curve, the LSH superset guarantee at Jaccard 1, and
range-safety of ``evaluate_blocking`` on arbitrary inputs.
"""

import hashlib
import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Record
from repro.data import blocking
from repro.data.blocking import (BlockingQuality, CandidateBatch,
                                 CandidatePair, MinHashLSHBlocker, _blob,
                                 SortedNeighborhoodBlocker, TfIdfBlocker,
                                 TokenBlocker, evaluate_blocking)
from repro.data.generators import universe
from repro.data.generators._base import NoiseProfile
from repro.dedupe import generate_catalog

pytestmark = pytest.mark.blocking


def _records():
    a = [Record({"title": "apexon phone zx100 black"}),
         Record({"title": "novatek laptop nv200 silver"}),
         Record({"title": "zenix camera zc300 red"})]
    b = [Record({"title": "apexon smartphone zx100"}),
         Record({"title": "novatek notebook nv200"}),
         Record({"title": "lumora watch lw400"})]
    return a, b


class TestTokenBlocker:
    def test_finds_shared_token_pairs(self):
        a, b = _records()
        pairs = TokenBlocker(max_token_frequency=1.0).candidates(a, b)
        found = {(p.index_a, p.index_b) for p in pairs}
        assert (0, 0) in found       # shares "apexon", "zx100"
        assert (1, 1) in found       # shares "novatek", "nv200"
        assert (2, 2) not in found   # no shared tokens

    def test_min_shared_filters(self):
        a, b = _records()
        pairs = TokenBlocker(max_token_frequency=1.0,
                             min_shared=2).candidates(a, b)
        found = {(p.index_a, p.index_b) for p in pairs}
        assert (0, 0) in found
        assert all(i == j for i, j in found)

    def test_frequency_cut_drops_stopwords(self):
        a = [Record({"title": f"the item {i}"}) for i in range(10)]
        b = [Record({"title": f"the product {i}"}) for i in range(10)]
        pairs = TokenBlocker(max_token_frequency=0.3).candidates(a, b)
        # "the" occurs everywhere and must not pair everything
        assert len(pairs) < 100

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBlocker(max_token_frequency=0.0)
        with pytest.raises(ValueError):
            TokenBlocker(min_shared=0)

    def test_attribute_subset(self):
        a = [Record({"title": "x", "brand": "shared"})]
        b = [Record({"title": "y", "brand": "shared"})]
        with_brand = TokenBlocker(max_token_frequency=1.0).candidates(a, b)
        title_only = TokenBlocker(attributes=["title"],
                                  max_token_frequency=1.0).candidates(a, b)
        assert with_brand and not title_only


class TestSortedNeighborhood:
    def test_nearby_keys_paired(self):
        a = [Record({"title": "aaa one"}), Record({"title": "zzz far"})]
        b = [Record({"title": "aab two"}), Record({"title": "mmm mid"})]
        pairs = SortedNeighborhoodBlocker("title", window=1).candidates(a, b)
        found = {(p.index_a, p.index_b) for p in pairs}
        assert (0, 0) in found

    def test_window_bounds_candidates(self):
        a = [Record({"title": f"{chr(97 + i)} item"}) for i in range(10)]
        b = [Record({"title": f"{chr(97 + i)} thing"}) for i in range(10)]
        small = SortedNeighborhoodBlocker("title", window=1).candidates(a, b)
        large = SortedNeighborhoodBlocker("title", window=8).candidates(a, b)
        assert len(small) < len(large)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocker("title", window=0)


class TestBlockingQuality:
    def test_perfect_blocking(self):
        from repro.data.blocking import CandidatePair
        candidates = [CandidatePair(0, 0), CandidatePair(1, 1)]
        quality = evaluate_blocking(candidates, {(0, 0), (1, 1)}, 10, 10)
        assert quality.pairs_completeness == 1.0
        assert quality.reduction_ratio == 1.0 - 2 / 100
        assert "PC 1.00" in str(quality)

    def test_missing_matches_lower_completeness(self):
        from repro.data.blocking import CandidatePair
        quality = evaluate_blocking([CandidatePair(0, 0)],
                                    {(0, 0), (5, 5)}, 10, 10)
        assert quality.pairs_completeness == 0.5

    def test_token_blocking_on_generated_universe(self):
        rng = np.random.default_rng(0)
        profile = NoiseProfile(p_missing_attr=0.0)
        schema = ["title", "brand", "modelno"]
        entities = [universe.sample_product(rng) for _ in range(30)]
        a = [universe.render_product(e, schema, profile, rng)
             for e in entities]
        b = [universe.render_product(e, schema, profile, rng)
             for e in entities]
        truth = {(i, i) for i in range(30)}
        pairs = TokenBlocker(max_token_frequency=0.5).candidates(a, b)
        quality = evaluate_blocking(pairs, truth, 30, 30)
        # two noisy views of the same entity share tokens almost always
        assert quality.pairs_completeness > 0.9
        assert quality.reduction_ratio > 0.3


def _catalog_records(n=40, seed=0):
    rng = np.random.default_rng(seed)
    profile = NoiseProfile(p_missing_attr=0.0)
    schema = ["title", "brand", "modelno"]
    return [universe.render_product(universe.sample_product(rng),
                                    schema, profile, rng)
            for _ in range(n)]


def _pair_set(candidates):
    return {(p.index_a, p.index_b) for p in candidates}


_ALL_BLOCKERS = [
    lambda: TokenBlocker(max_token_frequency=1.0),
    lambda: SortedNeighborhoodBlocker("title", window=3),
    lambda: TfIdfBlocker(top_k=5, threshold=0.05),
    lambda: MinHashLSHBlocker(num_permutations=32, band_size=2, seed=0),
]


class TestBlockerProtocol:
    @pytest.mark.parametrize("make", _ALL_BLOCKERS)
    def test_iter_candidates_batches_are_bounded(self, make):
        records = _catalog_records(30)
        batches = list(make().iter_candidates(records, batch_size=7))
        assert all(1 <= len(batch) <= 7 for batch in batches)

    @pytest.mark.parametrize("make", _ALL_BLOCKERS)
    def test_iter_candidates_flattens_to_candidates(self, make):
        records = _catalog_records(30)
        flat = [p for b in make().iter_candidates(records, batch_size=7)
                for p in b]
        assert flat == make().candidates(records)

    @pytest.mark.parametrize("make", _ALL_BLOCKERS)
    def test_self_join_pairs_are_ordered_and_distinct(self, make):
        records = _catalog_records(30)
        pairs = make().candidates(records)
        assert all(p.index_a < p.index_b for p in pairs)
        assert len(pairs) == len(_pair_set(pairs))

    @pytest.mark.parametrize("make", _ALL_BLOCKERS)
    def test_linkage_mode_still_works(self, make):
        a = _catalog_records(15, seed=1)
        b = _catalog_records(15, seed=2)
        pairs = make().candidates(a, b)
        assert all(0 <= p.index_a < 15 and 0 <= p.index_b < 15
                   for p in pairs)

    def test_invalid_batch_size(self):
        blocker = TokenBlocker(max_token_frequency=1.0)
        with pytest.raises(ValueError):
            list(blocker.iter_candidates(_catalog_records(5),
                                         batch_size=0))

    @pytest.mark.parametrize("make", _ALL_BLOCKERS)
    def test_empty_collection(self, make):
        assert make().candidates([]) == []

    @pytest.mark.parametrize("linkage", [False, True])
    @pytest.mark.parametrize("make", _ALL_BLOCKERS)
    def test_batches_are_exact_int64_columns(self, make, linkage):
        # Every batch but the last holds exactly batch_size pairs, and
        # the concatenated columns are candidates() in order.
        if linkage:
            inputs = (_catalog_records(25, seed=1),
                      _catalog_records(25, seed=2))
        else:
            inputs = (_catalog_records(40),)
        batches = list(make().iter_candidates(*inputs, batch_size=7))
        assert len(batches) > 1
        for batch in batches:
            assert isinstance(batch, CandidateBatch)
            assert batch.index_a.dtype == np.int64
            assert batch.index_b.dtype == np.int64
            assert len(batch.index_a) == len(batch.index_b) == len(batch)
        assert all(len(batch) == 7 for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= 7
        columns = list(zip(
            np.concatenate([b.index_a for b in batches]).tolist(),
            np.concatenate([b.index_b for b in batches]).tolist()))
        assert columns == [(p.index_a, p.index_b)
                           for p in make().candidates(*inputs)]


class TestSortedNeighborhoodRegressions:
    def test_plain_dict_missing_key_attribute(self):
        # Regression: _key used to raise a raw KeyError on mappings
        # without the key attribute.
        records = [{"title": "alpha"}, {"name": "no title here"},
                   {"title": "alpho"}]
        pairs = SortedNeighborhoodBlocker("title",
                                          window=2).candidates(records)
        assert (0, 2) in _pair_set(pairs)

    def test_record_missing_key_attribute(self):
        records = [Record({"title": "alpha"}), Record({"brand": "x"}),
                   Record({"title": "alpho"})]
        pairs = SortedNeighborhoodBlocker("title",
                                          window=2).candidates(records)
        assert (0, 2) in _pair_set(pairs)

    def test_none_value_treated_as_empty_key(self):
        records = [{"title": None}, {"title": "beta"}]
        pairs = SortedNeighborhoodBlocker("title",
                                          window=1).candidates(records)
        assert _pair_set(pairs) == {(0, 1)}


class TestTfIdfBlocker:
    def test_identical_records_are_top_neighbors(self):
        records = _catalog_records(20)
        doubled = records + records
        pairs = _pair_set(TfIdfBlocker(top_k=3).candidates(doubled))
        for i in range(20):
            assert (i, i + 20) in pairs

    def test_threshold_filters_weak_pairs(self):
        records = _catalog_records(30)
        loose = TfIdfBlocker(top_k=30, threshold=0.01).candidates(records)
        tight = TfIdfBlocker(top_k=30, threshold=0.6).candidates(records)
        assert _pair_set(tight) <= _pair_set(loose)
        assert len(tight) < len(loose)

    def test_top_k_bounds_candidate_volume(self):
        records = _catalog_records(30)
        few = TfIdfBlocker(top_k=1, threshold=0.0).candidates(records)
        many = TfIdfBlocker(top_k=20, threshold=0.0).candidates(records)
        assert len(few) <= len(many)
        # each record keeps at most top_k neighbors (ties aside)
        assert len(few) <= 30 * 2

    def test_disjoint_vocabulary_never_paired(self):
        records = [Record({"title": "aaa bbb"}),
                   Record({"title": "ccc ddd"})]
        assert TfIdfBlocker(threshold=0.0).candidates(records) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TfIdfBlocker(top_k=0)
        with pytest.raises(ValueError):
            TfIdfBlocker(threshold=1.5)


class TestMinHashLSH:
    def test_identical_records_always_candidates(self):
        # J=1 pairs have identical shingle sets, hence identical
        # signatures, hence a guaranteed band collision.
        records = _catalog_records(25)
        doubled = records + records
        pairs = _pair_set(MinHashLSHBlocker(seed=3).candidates(doubled))
        for i in range(25):
            assert (i, i + 25) in pairs

    def test_empty_records_never_candidates(self):
        records = [Record({"title": ""}), Record({"title": ""}),
                   Record({"title": "zenix camera zc300"})]
        assert MinHashLSHBlocker().candidates(records) == []

    def test_collision_probability_monotone_in_jaccard(self):
        blocker = MinHashLSHBlocker(num_permutations=128, band_size=4)
        grid = [i / 50 for i in range(51)]
        curve = [blocker.collision_probability(s) for s in grid]
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[0] == 0.0 and curve[-1] == 1.0

    def test_collision_curve_sharpens_with_band_size(self):
        # More rows per band → the S-curve shifts right (stricter).
        loose = MinHashLSHBlocker(num_permutations=128, band_size=2)
        strict = MinHashLSHBlocker(num_permutations=128, band_size=8)
        assert (loose.collision_probability(0.3)
                > strict.collision_probability(0.3))

    def test_jaccard_at_inverts_collision_probability(self):
        blocker = MinHashLSHBlocker(num_permutations=128, band_size=4)
        for p in (0.05, 0.5, 0.95):
            s = blocker.jaccard_at(p)
            assert blocker.collision_probability(s) == pytest.approx(p)

    def test_signature_agreement_estimates_jaccard(self):
        # Two token sets with known overlap: the fraction of agreeing
        # signature rows estimates their Jaccard similarity.
        shared = " ".join(f"tok{i}" for i in range(30))
        extra_a = " ".join(f"aaa{i}" for i in range(10))
        extra_b = " ".join(f"bbb{i}" for i in range(10))
        blocker = MinHashLSHBlocker(num_permutations=512, band_size=4,
                                    shingle_mode="token", shingle_size=1,
                                    seed=11)
        a = Record({"title": f"{shared} {extra_a}"})
        b = Record({"title": f"{shared} {extra_b}"})
        sig = blocker.signatures([a, b])
        true_j = 30 / 50
        estimate = blocker.estimate_jaccard(sig[0], sig[1])
        assert abs(estimate - true_j) < 0.1

    def test_candidates_superset_of_high_jaccard_pairs(self):
        # Every pair above the Jaccard level where the (b, r) curve
        # clears 0.9999 must be a candidate (seeded, so deterministic).
        # Two lightly-noised views of each entity guarantee pairs above
        # the floor exist.
        rng = np.random.default_rng(5)
        profile = NoiseProfile(p_synonym=0.05, p_typo=0.01,
                               p_drop_word=0.0, p_missing_attr=0.0,
                               p_code_drift=0.1)
        schema = ["title", "brand", "modelno"]
        entities = [universe.sample_product(rng) for _ in range(30)]
        records = [universe.render_product(e, schema, profile, rng)
                   for e in entities for _ in range(2)]
        blocker = MinHashLSHBlocker(num_permutations=128, band_size=4,
                                    seed=0)
        shingles = [blocker.shingles(r) for r in records]
        floor = blocker.jaccard_at(0.9999)
        required = set()
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                union = len(shingles[i] | shingles[j])
                if union and len(shingles[i] & shingles[j]) / union >= floor:
                    required.add((i, j))
        assert required  # the check must not be vacuous
        assert required <= _pair_set(blocker.candidates(records))

    def test_mega_bucket_guard_caps_blowup(self):
        records = [Record({"title": "identical product listing"})
                   for _ in range(40)]
        guarded = MinHashLSHBlocker(max_bucket_size=10, seed=0)
        assert guarded.candidates(records) == []

    def test_token_shingle_mode(self):
        records = _catalog_records(20)
        pairs = MinHashLSHBlocker(shingle_mode="token", shingle_size=2,
                                  seed=0).candidates(records + records)
        assert (0, 20) in _pair_set(pairs)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MinHashLSHBlocker(num_permutations=10, band_size=3)
        with pytest.raises(ValueError):
            MinHashLSHBlocker(shingle_mode="byte")
        with pytest.raises(ValueError):
            MinHashLSHBlocker(shingle_size=0)
        with pytest.raises(ValueError):
            MinHashLSHBlocker(max_bucket_size=1)
        blocker = MinHashLSHBlocker()
        with pytest.raises(ValueError):
            blocker.collision_probability(1.5)
        with pytest.raises(ValueError):
            blocker.jaccard_at(0.0)


_MAX = np.iinfo(np.uint64).max


def _reference_signatures(blocker, records):
    """The original MinHash: blake2b per gram, a Python set of digests
    per record, one reduceat per permutation over sorted digests."""
    sets = []
    for record in records:
        text = " ".join(re.findall(
            r"[a-z0-9]+", _blob(record, blocker.attributes).lower()))
        units = text.split() if blocker.shingle_mode == "token" else text
        glue = " " if blocker.shingle_mode == "token" else ""
        size = blocker.shingle_size
        grams = ([glue.join(units[k: k + size])
                  for k in range(len(units) - size + 1)]
                 if len(units) >= size else [glue.join(units)])
        sets.append({int.from_bytes(hashlib.blake2b(
            g.encode("utf-8"), digest_size=8).digest(), "little")
            for g in grams} if text else set())
    sig = np.full((len(records), blocker.num_permutations), _MAX,
                  dtype=np.uint64)
    occupied = [i for i, s in enumerate(sets) if s]
    if occupied:
        flat = np.array([h for i in occupied for h in sorted(sets[i])],
                        dtype=np.uint64)
        starts = np.cumsum([0] + [len(sets[i]) for i in occupied][:-1])
        for p in range(blocker.num_permutations):
            hashed = flat * blocker._mult[p] + blocker._add[p]
            sig[occupied, p] = np.minimum.reduceat(hashed, starts)
    return sig


def _reference_candidates(blocker, records_a, records_b=None):
    """The original banding: a dict of ``tobytes`` keys per band."""
    sig_a = _reference_signatures(blocker, records_a)
    sig_b = (sig_a if records_b is None
             else _reference_signatures(blocker, records_b))
    seen, out = set(), []
    for lo in range(0, blocker.num_permutations, blocker.band_size):
        buckets = defaultdict(list)
        for j, row in enumerate(sig_b):
            if not np.all(row == _MAX):
                buckets[row[lo: lo + blocker.band_size].tobytes()].append(j)
        emitted = []
        if records_b is None:
            for members in buckets.values():
                if 2 <= len(members) <= blocker.max_bucket_size:
                    emitted += [(i, j) for a, i in enumerate(members)
                                for j in members[a + 1:]]
        else:
            for i, row in enumerate(sig_a):
                members = buckets.get(row[lo: lo + blocker.band_size]
                                      .tobytes(), [])
                if (not np.all(row == _MAX)
                        and len(members) <= blocker.max_bucket_size):
                    emitted += [(i, j) for j in members]
        for pair in emitted:
            if pair not in seen:
                seen.add(pair)
                out.append(pair)
    return out


def _short_texts():
    return [Record({"title": t})
            for t in ("ab", "a", "ab", "zq", "", "ab zq", "a", "abc")]


_IDENTITY_CASES = {
    "char": (MinHashLSHBlocker(seed=1),
             lambda: generate_catalog(300, seed=3).records),
    "token": (MinHashLSHBlocker(shingle_mode="token", shingle_size=2,
                                num_permutations=64, seed=2),
              lambda: generate_catalog(300, seed=4).records),
    "short_char": (MinHashLSHBlocker(shingle_size=3, seed=0),
                   _short_texts),
    "short_token": (MinHashLSHBlocker(shingle_mode="token",
                                      shingle_size=3, seed=0),
                    _short_texts),
    "all_empty": (MinHashLSHBlocker(),
                  lambda: [Record({"title": ""}) for _ in range(4)]),
    "mega_bucket": (MinHashLSHBlocker(max_bucket_size=10, seed=0),
                    lambda: ([Record({"title": "identical listing"})] * 40
                             + [Record({"title": "twin listing"})] * 5
                             + _catalog_records(30))),
    "one_band": (MinHashLSHBlocker(num_permutations=16, band_size=16,
                                   seed=6),
                 lambda: generate_catalog(200, seed=5).records),
    "plain_mappings": (MinHashLSHBlocker(num_permutations=32,
                                         band_size=2, seed=7),
                       lambda: [dict(r.values) for r in
                                generate_catalog(120, seed=8).records]),
}


class TestMinHashBitIdentity:
    """The vectorized blocker against the original per-gram algorithm:
    same signature bits, same candidate list in the same order."""

    @pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
    def test_signatures_bitwise_equal(self, case):
        blocker, records = _IDENTITY_CASES[case]
        records = records()
        ours = blocker.signatures(records)
        assert ours.dtype == np.uint64
        assert np.array_equal(ours, _reference_signatures(blocker, records))

    @pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
    def test_self_join_candidates_in_order(self, case):
        blocker, records = _IDENTITY_CASES[case]
        records = records()
        ours = [(p.index_a, p.index_b) for p in blocker.candidates(records)]
        assert ours == _reference_candidates(blocker, records)

    @pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
    def test_linkage_candidates_in_order(self, case):
        blocker, records = _IDENTITY_CASES[case]
        records = records()
        half = len(records) // 2
        a, b = records[:half], records[half:]
        ours = [(p.index_a, p.index_b) for p in blocker.candidates(a, b)]
        assert ours == _reference_candidates(blocker, a, b)

    def test_cases_exercise_collisions(self):
        # Identity on an empty candidate list would prove nothing.
        blocker, records = _IDENTITY_CASES["char"]
        assert len(blocker.candidates(records())) > 100
        blocker, records = _IDENTITY_CASES["mega_bucket"]
        pairs = _pair_set(blocker.candidates(records()))
        assert (40, 41) in pairs and (0, 1) not in pairs

    def test_linkage_bucket_size_counted_on_b_side(self):
        blocker = MinHashLSHBlocker(max_bucket_size=10, seed=0)
        same = Record({"title": "identical listing"})
        twin = Record({"title": "twin listing"})
        a = [same] * 3 + [twin] * 2 + _catalog_records(10, seed=1)
        b = [twin] * 4 + [same] * 12 + _catalog_records(10, seed=2)
        ours = [(p.index_a, p.index_b) for p in blocker.candidates(a, b)]
        assert ours == _reference_candidates(blocker, a, b)
        assert (3, 0) in ours and (0, 4) not in ours

    def test_shingles_match_signature_vocabulary(self):
        blocker, records = _IDENTITY_CASES["short_char"]
        for record in records():
            sig = blocker.signatures([record])[0]
            digests = np.fromiter(blocker.shingles(record),
                                  dtype=np.uint64)
            if not len(digests):
                assert np.all(sig == _MAX)
                continue
            expected = (digests[:, None] * blocker._mult
                        + blocker._add).min(axis=0)
            assert np.array_equal(sig, expected)

    def test_pinned_candidate_digest(self):
        # sha256 of "i,j\n" lines of the candidate list, taken from the
        # per-gram / dict-banding implementation.
        pairs = MinHashLSHBlocker().candidates(
            generate_catalog(2000, seed=0).records)
        text = "".join(f"{p.index_a},{p.index_b}\n" for p in pairs)
        assert len(pairs) == 4258
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0338a260f0fe6490a23b4bc2ecf414bcb6a6ab5b7bc606f70e20fdf065b02a27")


#: Texts for the packed-shingle property: words, digits, punctuation
#: runs, and non-ASCII characters (some of which lower-case to ASCII:
#: the Kelvin sign and the dotted capital I).
_shingle_texts = st.lists(
    st.one_of(st.text(alphabet="abz09 .,-!\u00e9\u00df\u0130\u212a",
                      max_size=24),
              st.text(max_size=10)),
    min_size=0, max_size=10)


class TestPackedShingles:
    """The packed character path against the per-gram reference."""

    @settings(max_examples=120, deadline=None)
    @given(texts=_shingle_texts, size=st.integers(1, 8),
           chunk=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    def test_signatures_equal_reference(self, texts, size, chunk, seed):
        records = _to_records(texts)
        blocker = MinHashLSHBlocker(num_permutations=8, band_size=2,
                                    shingle_size=size, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            # A tiny chunk carries the gram vocabulary across chunks.
            patch.setattr(blocking, "_SHINGLE_CHUNK", chunk)
            ours = blocker.signatures(records)
        assert np.array_equal(ours, _reference_signatures(blocker, records))

    @pytest.mark.parametrize("size", range(1, 9))
    def test_edge_texts_every_size(self, size):
        texts = ["", "a", "ab", "abcdefgh", "abcdefghi", "...", "!? -",
                 "\u00e9t\u00e9", "\u212aelvin", "\u0130stanbul",
                 "\u00df", "x y", "a", "ab"]
        records = _to_records(texts)
        blocker = MinHashLSHBlocker(num_permutations=16, band_size=4,
                                    shingle_size=size, seed=size)
        assert np.array_equal(blocker.signatures(records),
                              _reference_signatures(blocker, records))

    def test_each_distinct_gram_hashed_once(self, monkeypatch):
        # Short texts are zero-filled past their end, so the same short
        # gram packs to one code whatever text follows it.
        hashed = []
        digest = blocking._digest
        monkeypatch.setattr(blocking, "_digest",
                            lambda gram: hashed.append(gram) or digest(gram))
        monkeypatch.setattr(blocking, "_SHINGLE_CHUNK", 3)
        records = _to_records(["ab", "cd", "ab", "xyz", "ab", "cdcd"])
        MinHashLSHBlocker(shingle_size=3).signatures(records)
        assert sorted(hashed) == [b"ab", b"cd", b"cdc", b"dcd", b"xyz"]

    def test_gram_first_seen_in_a_later_chunk(self):
        records = generate_catalog(blocking._SHINGLE_CHUNK + 50,
                                   seed=9).records
        records.append(Record({"title": "qjx"}))
        blocker = MinHashLSHBlocker(num_permutations=16, band_size=4,
                                    seed=3)
        first_chunk = {blocker._text(r)
                       for r in records[:blocking._SHINGLE_CHUNK]}
        assert not any("qjx" in text for text in first_chunk)
        ours = blocker.signatures(records)
        assert np.array_equal(ours, _reference_signatures(blocker, records))
        assert not np.all(ours[-1] == _MAX)


class TestBandFold:
    def test_fold_collision_regroups_exactly(self, monkeypatch):
        # With a zero multiplier every band folds to its last row, so
        # records differing only in earlier rows collide in the key.
        monkeypatch.setattr(blocking, "_FOLD", np.uint64(0))
        band = np.array([[1, 2, 1, 2, 3],
                         [5, 5, 5, 5, 5]], dtype=np.uint64)
        grouped, sizes, buckets = blocking._buckets(band)
        assert grouped.tolist() == [0, 2, 1, 3, 4]
        assert sizes.tolist() == [2, 2, 1]
        assert buckets.tolist() == [0, 1, 0, 1, 2]

    def test_candidates_survive_fold_collisions(self, monkeypatch):
        monkeypatch.setattr(blocking, "_FOLD", np.uint64(0))
        blocker, records = _IDENTITY_CASES["char"]
        records = records()
        ours = [(p.index_a, p.index_b) for p in blocker.candidates(records)]
        assert ours == _reference_candidates(blocker, records)


_titles = st.lists(
    st.text(alphabet="ab 12", min_size=0, max_size=12),
    min_size=0, max_size=12)


def _to_records(titles):
    return [Record({"title": t}) for t in titles]


class TestBlockerProperties:
    @settings(max_examples=40, deadline=None)
    @given(titles=_titles)
    def test_token_blocker_deterministic(self, titles):
        records = _to_records(titles)
        blocker = TokenBlocker(max_token_frequency=1.0)
        assert blocker.candidates(records) == blocker.candidates(records)

    @settings(max_examples=40, deadline=None)
    @given(titles=_titles)
    def test_tfidf_blocker_deterministic(self, titles):
        records = _to_records(titles)
        blocker = TfIdfBlocker(top_k=3, threshold=0.05)
        assert blocker.candidates(records) == blocker.candidates(records)

    @settings(max_examples=40, deadline=None)
    @given(titles=_titles)
    def test_minhash_blocker_deterministic(self, titles):
        records = _to_records(titles)
        blocker = MinHashLSHBlocker(num_permutations=16, band_size=2,
                                    seed=4)
        assert blocker.candidates(records) == blocker.candidates(records)

    @settings(max_examples=30, deadline=None)
    @given(titles=_titles, seed=st.integers(0, 2 ** 16))
    def test_token_blocker_permutation_invariant(self, titles, seed):
        self._assert_permutation_invariant(
            TokenBlocker(max_token_frequency=1.0), titles, seed)

    @settings(max_examples=30, deadline=None)
    @given(titles=_titles, seed=st.integers(0, 2 ** 16))
    def test_tfidf_blocker_permutation_invariant(self, titles, seed):
        self._assert_permutation_invariant(
            TfIdfBlocker(top_k=3, threshold=0.05), titles, seed)

    @settings(max_examples=30, deadline=None)
    @given(titles=_titles, seed=st.integers(0, 2 ** 16))
    def test_minhash_blocker_permutation_invariant(self, titles, seed):
        self._assert_permutation_invariant(
            MinHashLSHBlocker(num_permutations=16, band_size=2, seed=4),
            titles, seed)

    @staticmethod
    def _assert_permutation_invariant(blocker, titles, seed):
        # Candidate sets must agree up to index relabeling under any
        # shuffle of the input records.  (SortedNeighborhoodBlocker is
        # deliberately excluded: equal sort keys are windowed in input
        # order, so it only promises determinism, not invariance.)
        records = _to_records(titles)
        base = {(min(p.index_a, p.index_b), max(p.index_a, p.index_b))
                for p in blocker.candidates(records)}
        order = list(np.random.default_rng(seed).permutation(len(records)))
        shuffled = [records[i] for i in order]
        relabeled = set()
        for p in blocker.candidates(shuffled):
            i, j = order[p.index_a], order[p.index_b]
            relabeled.add((min(i, j), max(i, j)))
        assert relabeled == base


class TestEvaluateBlockingProperties:
    def test_empty_cross_product_reduction_is_one(self):
        # Regression: an empty cross product used to report RR 0.0.
        quality = evaluate_blocking([], set(), 0, 0)
        assert quality.reduction_ratio == 1.0
        assert quality.pairs_completeness == 1.0
        assert quality.num_candidates == 0

    def test_single_record_self_join_reduction_is_one(self):
        assert evaluate_blocking([], set(), 1).reduction_ratio == 1.0

    def test_self_join_cross_product(self):
        pairs = [CandidatePair(0, 1)]
        quality = evaluate_blocking(pairs, {(0, 1)}, 5)
        assert quality.reduction_ratio == 1.0 - 1 / 10
        assert quality.pairs_completeness == 1.0

    def test_duplicate_candidates_counted_once(self):
        pairs = [CandidatePair(0, 1), CandidatePair(0, 1)]
        assert evaluate_blocking(pairs, set(), 5).num_candidates == 1

    @settings(max_examples=60, deadline=None)
    @given(
        candidates=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            max_size=40),
        matches=st.sets(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            max_size=20),
        size_a=st.integers(0, 25),
        size_b=st.one_of(st.none(), st.integers(0, 25)))
    def test_metrics_always_in_range(self, candidates, matches,
                                     size_a, size_b):
        quality = evaluate_blocking(
            [CandidatePair(a, b) for a, b in candidates],
            matches, size_a, size_b)
        assert 0.0 <= quality.pairs_completeness <= 1.0
        assert 0.0 <= quality.reduction_ratio <= 1.0
        assert quality.num_candidates >= 0
