"""Tokenizers: vocab, normalization, WordPiece, BPE, unigram, pair packing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tokenizers import (ByteLevelBPETokenizer, SpecialTokens,
                              SubwordTokenizer, UnigramTokenizer, Vocab,
                              WordPieceTokenizer, basic_pretokenize,
                              gpt2_pretokenize, normalize_text,
                              train_byte_level_bpe, train_unigram,
                              train_wordpiece)

CORPUS = [
    "the fast apexon phone with wireless display",
    "the quick apexon smartphone with cordless display",
    "a strong novatek laptop with big screen",
    "buy the new novatek notebook with large screen",
    "zenix camera with bright lens and strong battery",
] * 8


class TestVocab:
    def test_special_tokens_get_lowest_ids(self):
        vocab = Vocab(["aa", "bb"], SpecialTokens.bert())
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.cls_id == 2
        assert vocab.sep_id == 3
        assert vocab.mask_id == 4

    def test_roundtrip_token_ids(self):
        vocab = Vocab(["hello", "world"], SpecialTokens.bert())
        assert vocab.id_to_token(vocab.token_to_id("hello")) == "hello"

    def test_unknown_maps_to_unk(self):
        vocab = Vocab(["hello"], SpecialTokens.bert())
        assert vocab.token_to_id("zzz") == vocab.unk_id

    def test_duplicates_collapsed(self):
        vocab = Vocab(["x", "x", "y"], SpecialTokens.bert())
        assert len(vocab) == 5 + 2

    def test_save_load(self, tmp_path):
        vocab = Vocab(["alpha", "beta"], SpecialTokens.roberta())
        vocab.save(tmp_path / "v.json")
        loaded = Vocab.load(tmp_path / "v.json")
        assert loaded.tokens() == vocab.tokens()
        assert loaded.specials.cls == "<s>"

    def test_special_ids(self):
        vocab = Vocab(["a"], SpecialTokens.bert())
        assert vocab.special_ids() == {0, 1, 2, 3, 4}


class TestNormalize:
    def test_lowercase_and_accents(self):
        assert normalize_text("Café") == "cafe"

    def test_keep_case(self):
        assert normalize_text("ABC", lowercase=False) == "ABC"

    def test_basic_pretokenize_punctuation(self):
        assert basic_pretokenize("don't stop-now!") == [
            "don", "'", "t", "stop", "-", "now", "!"]

    def test_basic_pretokenize_whitespace(self):
        assert basic_pretokenize("  a  b ") == ["a", "b"]

    def test_gpt2_contractions(self):
        pieces = gpt2_pretokenize("it's fine")
        assert "'s" in pieces

    def test_gpt2_keeps_leading_space(self):
        pieces = gpt2_pretokenize("a b")
        assert pieces == ["a", " b"]


class TestWordPiece:
    @pytest.fixture(scope="class")
    def tok(self):
        return train_wordpiece(CORPUS, vocab_size=160, min_frequency=2)

    def test_learns_whole_common_words(self, tok):
        assert "the" in tok.vocab

    def test_roundtrip_known_text(self, tok):
        text = "the fast phone"
        assert tok.detokenize(tok.tokenize(text)) == text

    def test_continuation_prefix(self, tok):
        pieces = tok.tokenize("apexon")
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == "apexon"
        assert all(p.startswith("##") for p in pieces[1:])

    def test_unknown_chars_to_unk(self, tok):
        assert tok.vocab.specials.unk in tok.tokenize("日本語")

    def test_payload_roundtrip(self, tok):
        clone = WordPieceTokenizer.from_payload(tok.to_payload())
        text = "quick cordless display"
        assert clone.tokenize(text) == tok.tokenize(text)

    def test_vocab_size_respected(self, tok):
        assert len(tok.vocab) <= 160


class TestByteLevelBPE:
    @pytest.fixture(scope="class")
    def tok(self):
        return train_byte_level_bpe(CORPUS, vocab_size=320)

    def test_lossless_roundtrip_any_text(self, tok):
        for text in ("the fast phone!", "weird $#@ tokens", "numbers 123.45"):
            assert tok.detokenize(tok.tokenize(text)) == text.lower()

    def test_no_unk_needed(self, tok):
        pieces = tok.tokenize("日本語")
        assert tok.vocab.specials.unk not in pieces

    def test_merges_ordered(self, tok):
        assert len(tok.merges) > 0
        assert all(isinstance(p, tuple) and len(p) == 2 for p in tok.merges)

    def test_payload_roundtrip(self, tok):
        clone = ByteLevelBPETokenizer.from_payload(tok.to_payload())
        text = "novatek notebook screen"
        assert clone.tokenize(text) == tok.tokenize(text)


class TestUnigram:
    @pytest.fixture(scope="class")
    def tok(self):
        return train_unigram(CORPUS, vocab_size=150)

    def test_roundtrip(self, tok):
        text = "the fast phone with display"
        assert tok.detokenize(tok.tokenize(text)) == text

    def test_cls_at_end(self, tok):
        assert tok.cls_at_end

    def test_viterbi_prefers_long_pieces(self, tok):
        # Longest-piece segmentations have fewer pieces than characters.
        pieces = tok.tokenize("the fast phone")
        assert len(pieces) < len("the fast phone")

    def test_payload_roundtrip(self, tok):
        clone = UnigramTokenizer.from_payload(tok.to_payload())
        text = "wireless camera battery"
        assert clone.tokenize(text) == tok.tokenize(text)


_TRAIN_IN_CHILD = """
import json
from repro.pretraining import generate_corpus
from repro.tokenizers import train_unigram
from repro.utils import child_rng
corpus = generate_corpus(child_rng(0, "tokenizer-corpus"), 150)
tok = train_unigram(corpus, vocab_size=220)
print(json.dumps({"vocab": [tok.vocab.id_to_token(i)
                            for i in range(len(tok.vocab))],
                  "log_probs": sorted(tok.log_probs.items())}))
"""


def test_unigram_training_ignores_hash_seed():
    """Same corpus, different ``PYTHONHASHSEED``: same vocabulary and
    piece log-probs, so ties between pieces never break in hash order."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    results = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _TRAIN_IN_CHILD],
                              env=env, capture_output=True, text=True,
                              check=False)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    assert results[0]["vocab"] == results[1]["vocab"]
    assert results[0]["log_probs"] == results[1]["log_probs"]


class TestPairEncoding:
    @pytest.fixture(scope="class")
    def wp(self):
        return train_wordpiece(CORPUS, vocab_size=160, min_frequency=2)

    @pytest.fixture(scope="class")
    def uni(self):
        return train_unigram(CORPUS, vocab_size=150)

    def test_pair_layout_bert_style(self, wp):
        enc = wp.encode_pair("fast phone", "quick smartphone",
                             max_length=20)
        v = wp.vocab
        assert enc.input_ids[0] == v.cls_id
        assert enc.cls_index == 0
        sep_positions = np.flatnonzero(enc.input_ids == v.sep_id)
        assert len(sep_positions) == 2
        assert enc.segment_ids[0] == 0
        assert enc.segment_ids[sep_positions[0] + 1] == 1
        assert len(enc) == 20

    def test_pair_layout_cls_at_end(self, uni):
        enc = uni.encode_pair("fast phone", "quick phone", max_length=24)
        assert enc.input_ids[-1] == uni.vocab.cls_id
        assert enc.cls_index == 23
        assert enc.pad_mask[0] or enc.num_real_tokens == 24  # left padding

    def test_truncation_trims_longer_side(self, wp):
        long_a = " ".join(["phone"] * 30)
        enc = wp.encode_pair(long_a, "display", max_length=16)
        assert len(enc) == 16
        # entity B must survive truncation
        sep_positions = np.flatnonzero(enc.input_ids == wp.vocab.sep_id)
        assert sep_positions[1] > sep_positions[0] + 1

    def test_max_length_too_small_raises(self, wp):
        with pytest.raises(ValueError):
            wp.encode_pair("a", "b", max_length=3)

    def test_encode_single(self, wp):
        enc = wp.encode_single("fast phone", max_length=10)
        assert enc.input_ids[0] == wp.vocab.cls_id
        assert len(enc) == 10

    def test_decode_skips_specials(self, wp):
        enc = wp.encode_pair("fast phone", "quick display", max_length=20)
        decoded = wp.decode(list(enc.input_ids))
        assert "[CLS]" not in decoded
        assert "fast" in decoded

    def test_no_padding_when_disabled(self, wp):
        enc = wp.encode_pair("fast", "phone", max_length=32,
                             pad_to_max=False)
        assert len(enc) < 32
        assert not enc.pad_mask.any()


@given(st.text(alphabet="abcdefg ", min_size=1, max_size=30))
@settings(max_examples=25, deadline=None)
def test_bpe_roundtrip_property(text):
    tok = train_byte_level_bpe(CORPUS, vocab_size=300)
    normalized = normalize_text(text, strip_accents=False)
    if normalized.strip():
        assert tok.detokenize(tok.tokenize(text)) == " ".join(
            normalized.split())


@given(st.integers(8, 40))
@settings(max_examples=15, deadline=None)
def test_pair_encoding_always_fits(max_length):
    tok = train_wordpiece(CORPUS, vocab_size=160, min_frequency=2)
    enc = tok.encode_pair("the fast apexon phone " * 3,
                          "the quick novatek laptop " * 3,
                          max_length=max_length)
    assert len(enc) == max_length
    assert enc.num_real_tokens <= max_length
