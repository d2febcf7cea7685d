"""Unigram-LM subword tokenizer (Kudo 2018), as in SentencePiece / XLNet.

Training: seed a large candidate vocabulary with frequent substrings, then
alternate EM re-estimation of piece probabilities with pruning of the
lowest-contribution pieces until the target size is reached.  Encoding is
Viterbi segmentation under the learned piece log-probabilities.

Unlike WordPiece/BPE, the input is *not* pre-tokenized: spaces are mapped
to the meta symbol '▁' and the raw sentence is segmented as a whole.
"""

from __future__ import annotations

import math
from collections import Counter

from .base import SubwordTokenizer
from .normalize import normalize_text
from .vocab import SpecialTokens, Vocab

__all__ = ["UnigramTokenizer", "train_unigram"]

_SPACE = "▁"


class UnigramTokenizer(SubwordTokenizer):
    """Viterbi-decoding unigram tokenizer with CLS-at-end pair packing."""

    def __init__(self, vocab: Vocab, log_probs: dict[str, float],
                 lowercase: bool = True, max_piece_len: int = 16):
        super().__init__(vocab, cls_at_end=True)
        self.lowercase = lowercase
        self.log_probs = dict(log_probs)
        self.max_piece_len = max_piece_len
        self._unk_penalty = min(log_probs.values(), default=-10.0) - 10.0

    def tokenize(self, text: str) -> list[str]:
        text = normalize_text(text, lowercase=self.lowercase)
        if not text:
            return []
        sentence = _SPACE + text.replace(" ", _SPACE)
        return self._viterbi(sentence)

    def _viterbi(self, sentence: str) -> list[str]:
        n = len(sentence)
        best_score = [-math.inf] * (n + 1)
        best_score[0] = 0.0
        backpointer = [0] * (n + 1)
        for end in range(1, n + 1):
            for start in range(max(0, end - self.max_piece_len), end):
                if best_score[start] == -math.inf:
                    continue
                piece = sentence[start:end]
                logp = self.log_probs.get(piece)
                if logp is None:
                    if end - start > 1:
                        continue
                    logp = self._unk_penalty  # single unknown char fallback
                score = best_score[start] + logp
                if score > best_score[end]:
                    best_score[end] = score
                    backpointer[end] = start
        pieces: list[str] = []
        pos = n
        while pos > 0:
            start = backpointer[pos]
            pieces.append(sentence[start:pos])
            pos = start
        return list(reversed(pieces))

    def detokenize(self, tokens: list[str]) -> str:
        return "".join(tokens).replace(_SPACE, " ").strip()


def train_unigram(corpus: list[str], vocab_size: int,
                  lowercase: bool = True,
                  seed_multiplier: int = 4,
                  max_piece_len: int = 8,
                  em_iterations: int = 2,
                  prune_fraction: float = 0.25,
                  specials: SpecialTokens | None = None
                  ) -> UnigramTokenizer:
    """Learn a unigram-LM vocabulary of roughly ``vocab_size`` pieces."""
    specials = specials or SpecialTokens.xlnet()
    sentences = [
        _SPACE + normalize_text(line, lowercase=lowercase).replace(" ", _SPACE)
        for line in corpus if line.strip()
    ]

    # Seed: all substrings up to max_piece_len, keep the most frequent.
    substring_freq: Counter[str] = Counter()
    for sentence in sentences:
        n = len(sentence)
        for i in range(n):
            for j in range(i + 1, min(i + 1 + max_piece_len, n + 1)):
                substring_freq[sentence[i:j]] += 1
    alphabet = {ch for sentence in sentences for ch in sentence}
    seed_size = max(vocab_size * seed_multiplier, vocab_size + len(alphabet))
    candidates = {piece for piece, _ in substring_freq.most_common(seed_size)}
    candidates |= alphabet  # single chars must stay encodable

    log_probs = _estimate(substring_freq, candidates)
    n_reserved = len(specials.all())

    while len(log_probs) > vocab_size - n_reserved:
        # EM: re-estimate piece frequencies from Viterbi segmentations.
        tokenizer = UnigramTokenizer(
            Vocab(sorted(log_probs), specials), log_probs,
            lowercase=lowercase, max_piece_len=max_piece_len)
        for _ in range(em_iterations):
            piece_freq: Counter[str] = Counter()
            for sentence in sentences:
                for piece in tokenizer._viterbi(sentence):
                    piece_freq[piece] += 1
            used = set(piece_freq) | alphabet
            log_probs = _estimate(piece_freq, used)
            tokenizer.log_probs = log_probs

        if len(log_probs) <= vocab_size - n_reserved:
            break
        # Prune the least useful multi-char pieces.
        # Ties in log-prob break on the piece itself, never on hash
        # order, so the vocabulary does not depend on PYTHONHASHSEED.
        removable = sorted(
            (piece for piece in log_probs if len(piece) > 1),
            key=lambda piece: (log_probs[piece], piece))
        target = max(len(log_probs) - vocab_size + n_reserved, 1)
        n_prune = min(max(int(len(log_probs) * prune_fraction), 1), target,
                      len(removable))
        if n_prune == 0:
            break
        for piece in removable[:n_prune]:
            del log_probs[piece]

    vocab = Vocab(sorted(log_probs), specials)
    return UnigramTokenizer(vocab, log_probs, lowercase=lowercase,
                            max_piece_len=max_piece_len)


def _estimate(freq: Counter, pieces: set[str]) -> dict[str, float]:
    pieces = sorted(pieces)
    total = sum(freq.get(piece, 1) for piece in pieces)
    return {piece: math.log(freq.get(piece, 1) / total) for piece in pieces}


def _unigram_payload(tokenizer: UnigramTokenizer) -> dict:
    return {
        "kind": "unigram",
        "lowercase": tokenizer.lowercase,
        "max_piece_len": tokenizer.max_piece_len,
        "log_probs": tokenizer.log_probs,
        "specials": {
            "pad": tokenizer.vocab.specials.pad,
            "unk": tokenizer.vocab.specials.unk,
            "cls": tokenizer.vocab.specials.cls,
            "sep": tokenizer.vocab.specials.sep,
            "mask": tokenizer.vocab.specials.mask,
        },
    }


def _unigram_from_payload(payload: dict) -> UnigramTokenizer:
    specials = SpecialTokens(**payload["specials"])
    log_probs = dict(payload["log_probs"])
    vocab = Vocab(sorted(log_probs), specials)
    return UnigramTokenizer(vocab, log_probs,
                            lowercase=payload["lowercase"],
                            max_piece_len=payload["max_piece_len"])


UnigramTokenizer.to_payload = _unigram_payload
UnigramTokenizer.from_payload = staticmethod(_unigram_from_payload)
