"""Byte-level byte-pair encoding (Sennrich et al., 2016; GPT-2/RoBERTa).

Text is first mapped to a reversible printable-unicode representation of
its UTF-8 bytes (so *any* input is encodable without UNK), then merged
greedily in learned merge order.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .base import SubwordTokenizer
from .normalize import gpt2_pretokenize, normalize_text
from .vocab import SpecialTokens, Vocab

__all__ = ["ByteLevelBPETokenizer", "train_byte_level_bpe"]


@lru_cache(maxsize=1)
def _byte_encoder() -> dict[int, str]:
    """GPT-2's reversible byte -> printable unicode char map."""
    visible = (list(range(ord("!"), ord("~") + 1))
               + list(range(ord("\xa1"), ord("\xac") + 1))
               + list(range(ord("\xae"), ord("\xff") + 1)))
    chars = visible[:]
    offset = 0
    for byte in range(256):
        if byte not in visible:
            visible.append(byte)
            chars.append(256 + offset)
            offset += 1
    return dict(zip(visible, (chr(c) for c in chars)))


@lru_cache(maxsize=1)
def _byte_decoder() -> dict[str, int]:
    return {ch: byte for byte, ch in _byte_encoder().items()}


def _to_byte_chars(word: str) -> list[str]:
    encoder = _byte_encoder()
    return [encoder[b] for b in word.encode("utf-8")]


class ByteLevelBPETokenizer(SubwordTokenizer):
    """Encoder applying learned merges in rank order."""

    def __init__(self, vocab: Vocab, merges: list[tuple[str, str]],
                 lowercase: bool = True):
        super().__init__(vocab)
        self.lowercase = lowercase
        self.merges = list(merges)
        self._ranks = {pair: i for i, pair in enumerate(merges)}

    def tokenize(self, text: str) -> list[str]:
        text = normalize_text(text, lowercase=self.lowercase,
                              strip_accents=False)
        tokens: list[str] = []
        for word in gpt2_pretokenize(text):
            tokens.extend(self.memo.word(word, self._bpe))
        return tokens

    def _bpe(self, word: str) -> list[str]:
        symbols = _to_byte_chars(word)
        if len(symbols) <= 1:
            return symbols
        while True:
            best_rank, best_idx = None, None
            for i, pair in enumerate(zip(symbols, symbols[1:])):
                rank = self._ranks.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_idx = rank, i
            if best_idx is None:
                break
            symbols = (symbols[:best_idx]
                       + [symbols[best_idx] + symbols[best_idx + 1]]
                       + symbols[best_idx + 2:])
        return symbols

    def detokenize(self, tokens: list[str]) -> str:
        decoder = _byte_decoder()
        data = bytes(decoder[ch] for token in tokens for ch in token)
        return data.decode("utf-8", errors="replace").strip()

    # -- persistence (merges are part of the model) ------------------------

    def merge_table(self) -> list[tuple[str, str]]:
        return list(self.merges)


def train_byte_level_bpe(corpus: list[str], vocab_size: int,
                         lowercase: bool = True,
                         min_frequency: int = 2,
                         specials: SpecialTokens | None = None
                         ) -> ByteLevelBPETokenizer:
    """Learn byte-level BPE merges by highest pair frequency."""
    specials = specials or SpecialTokens.roberta()
    word_freq: Counter[str] = Counter()
    for line in corpus:
        text = normalize_text(line, lowercase=lowercase, strip_accents=False)
        for word in gpt2_pretokenize(text):
            word_freq[word] += 1

    segmentations: dict[str, list[str]] = {
        word: _to_byte_chars(word) for word in word_freq
    }
    alphabet = sorted({sym for seg in segmentations.values() for sym in seg})
    vocab_tokens: list[str] = list(alphabet)
    merges: list[tuple[str, str]] = []
    n_reserved = len(specials.all())

    while n_reserved + len(vocab_tokens) < vocab_size:
        pair_freq: Counter[tuple[str, str]] = Counter()
        for word, seg in segmentations.items():
            freq = word_freq[word]
            for pair in zip(seg, seg[1:]):
                pair_freq[pair] += freq
        if not pair_freq:
            break
        best_pair, best_freq = None, 0
        for pair, freq in pair_freq.items():
            if freq < min_frequency:
                continue
            if best_pair is None or freq > best_freq or (
                    freq == best_freq and pair < best_pair):
                best_pair, best_freq = pair, freq
        if best_pair is None:
            break
        merged = best_pair[0] + best_pair[1]
        merges.append(best_pair)
        vocab_tokens.append(merged)
        for word, seg in segmentations.items():
            segmentations[word] = _merge_seg(seg, best_pair, merged)

    vocab = Vocab(vocab_tokens, specials)
    return ByteLevelBPETokenizer(vocab, merges, lowercase=lowercase)


def _merge_seg(seg: list[str], pair: tuple[str, str],
               merged: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(seg):
        if i + 1 < len(seg) and (seg[i], seg[i + 1]) == pair:
            out.append(merged)
            i += 2
        else:
            out.append(seg[i])
            i += 1
    return out


def _bpe_payload(tokenizer: ByteLevelBPETokenizer) -> dict:
    return {
        "kind": "bpe",
        "lowercase": tokenizer.lowercase,
        "tokens": tokenizer.vocab.tokens(),
        "merges": [list(pair) for pair in tokenizer.merges],
        "specials": {
            "pad": tokenizer.vocab.specials.pad,
            "unk": tokenizer.vocab.specials.unk,
            "cls": tokenizer.vocab.specials.cls,
            "sep": tokenizer.vocab.specials.sep,
            "mask": tokenizer.vocab.specials.mask,
        },
    }


def _bpe_from_payload(payload: dict) -> ByteLevelBPETokenizer:
    specials = SpecialTokens(**payload["specials"])
    n = len(specials.all())
    vocab = Vocab(payload["tokens"][n:], specials)
    merges = [tuple(pair) for pair in payload["merges"]]
    return ByteLevelBPETokenizer(vocab, merges,
                                 lowercase=payload["lowercase"])


ByteLevelBPETokenizer.to_payload = _bpe_payload
ByteLevelBPETokenizer.from_payload = staticmethod(_bpe_from_payload)
