"""WordPiece tokenizer (Schuster & Nakajima, 2012) used by BERT/DistilBERT.

Training grows a subword vocabulary by repeatedly merging the symbol pair
with the highest likelihood score ``count(ab) / (count(a) * count(b))``
(the WordPiece criterion, vs. raw frequency for BPE).  Encoding uses the
standard greedy longest-match-first algorithm with ``##`` continuation
prefixes.
"""

from __future__ import annotations

from collections import Counter

from .base import SubwordTokenizer
from .normalize import basic_pretokenize, normalize_text
from .vocab import SpecialTokens, Vocab

__all__ = ["WordPieceTokenizer", "train_wordpiece"]

_CONT = "##"


class WordPieceTokenizer(SubwordTokenizer):
    """Greedy longest-match-first WordPiece encoder."""

    def __init__(self, vocab: Vocab, lowercase: bool = True,
                 max_word_chars: int = 100):
        super().__init__(vocab)
        self.lowercase = lowercase
        self.max_word_chars = max_word_chars

    def tokenize(self, text: str) -> list[str]:
        text = normalize_text(text, lowercase=self.lowercase)
        output: list[str] = []
        # Memoize whole whitespace-separated chunks rather than the
        # punctuation-split words inside them: one memo hit replaces the
        # punctuation scan plus every greedy match in the chunk.
        for chunk in text.split():
            output.extend(self.memo.word(chunk, self._tokenize_chunk))
        return output

    def _tokenize_chunk(self, chunk: str) -> list[str]:
        pieces: list[str] = []
        for word in basic_pretokenize(chunk):
            pieces.extend(self._tokenize_word(word))
        return pieces

    def _tokenize_word(self, word: str) -> list[str]:
        if len(word) > self.max_word_chars:
            return [self.vocab.specials.unk]
        pieces: list[str] = []
        start = 0
        while start < len(word):
            end = len(word)
            piece = None
            while end > start:
                candidate = word[start:end]
                if start > 0:
                    candidate = _CONT + candidate
                if candidate in self.vocab:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                return [self.vocab.specials.unk]
            pieces.append(piece)
            start = end
        return pieces

    def detokenize(self, tokens: list[str]) -> str:
        words: list[str] = []
        for token in tokens:
            if token.startswith(_CONT) and words:
                words[-1] = words[-1] + token[len(_CONT):]
            else:
                words.append(token)
        return " ".join(words)


def train_wordpiece(corpus: list[str], vocab_size: int,
                    lowercase: bool = True,
                    min_frequency: int = 2,
                    specials: SpecialTokens | None = None
                    ) -> WordPieceTokenizer:
    """Learn a WordPiece vocabulary of (at most) ``vocab_size`` tokens.

    Parameters
    ----------
    corpus:
        Training sentences.
    vocab_size:
        Target total vocabulary size, including special tokens and the
        single-character alphabet.
    min_frequency:
        Pairs rarer than this are never merged.
    """
    specials = specials or SpecialTokens.bert()
    word_freq: Counter[str] = Counter()
    for line in corpus:
        for word in basic_pretokenize(normalize_text(line, lowercase=lowercase)):
            word_freq[word] += 1

    # Each word starts as its character sequence with ## continuations.
    segmentations: dict[str, list[str]] = {
        word: [word[0]] + [_CONT + ch for ch in word[1:]]
        for word in word_freq
    }
    alphabet = sorted({sym for seg in segmentations.values() for sym in seg})
    vocab_tokens: list[str] = list(alphabet)
    n_reserved = len(specials.all())

    while n_reserved + len(vocab_tokens) < vocab_size:
        pair_freq: Counter[tuple[str, str]] = Counter()
        symbol_freq: Counter[str] = Counter()
        for word, seg in segmentations.items():
            freq = word_freq[word]
            for sym in seg:
                symbol_freq[sym] += freq
            for a, b in zip(seg, seg[1:]):
                pair_freq[(a, b)] += freq
        if not pair_freq:
            break
        best_pair, best_score = None, 0.0
        for (a, b), freq in pair_freq.items():
            if freq < min_frequency:
                continue
            score = freq / (symbol_freq[a] * symbol_freq[b])
            if best_pair is None or score > best_score or (
                    score == best_score and (a, b) < best_pair):
                best_pair, best_score = (a, b), score
        if best_pair is None:
            break
        merged = best_pair[0] + best_pair[1].removeprefix(_CONT)
        vocab_tokens.append(merged)
        for word, seg in segmentations.items():
            segmentations[word] = _apply_merge(seg, best_pair, merged)

    vocab = Vocab(vocab_tokens, specials)
    return WordPieceTokenizer(vocab, lowercase=lowercase)


def _apply_merge(seg: list[str], pair: tuple[str, str],
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


def _wordpiece_payload(tokenizer: WordPieceTokenizer) -> dict:
    return {
        "kind": "wordpiece",
        "lowercase": tokenizer.lowercase,
        "tokens": tokenizer.vocab.tokens(),
        "specials": {
            "pad": tokenizer.vocab.specials.pad,
            "unk": tokenizer.vocab.specials.unk,
            "cls": tokenizer.vocab.specials.cls,
            "sep": tokenizer.vocab.specials.sep,
            "mask": tokenizer.vocab.specials.mask,
        },
    }


def _wordpiece_from_payload(payload: dict) -> WordPieceTokenizer:
    specials = SpecialTokens(**payload["specials"])
    n = len(specials.all())
    vocab = Vocab(payload["tokens"][n:], specials)
    return WordPieceTokenizer(vocab, lowercase=payload["lowercase"])


WordPieceTokenizer.to_payload = _wordpiece_payload
WordPieceTokenizer.from_payload = staticmethod(_wordpiece_from_payload)
