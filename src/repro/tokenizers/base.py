"""Tokenizer base class and the pair-encoding used for entity matching.

The EM pipeline of the paper (Figure 9) feeds an entity pair as::

    [CLS] tok(A)_1 .. tok(A)_N [SEP] tok(B)_1 .. tok(B)_M [SEP]

with segment ids 0 for entity A (including CLS/first SEP) and 1 for
entity B.  XLNet instead appends the classification token at the *end*
(``A <sep> B <sep> <cls>``), which :class:`SubwordTokenizer` supports via
``cls_at_end``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.cache import TokenizationCache
from .vocab import Vocab

__all__ = ["Encoding", "SubwordTokenizer"]


@dataclass
class Encoding:
    """A model-ready encoded sequence (single or pair)."""

    input_ids: np.ndarray       # (T,) int64
    segment_ids: np.ndarray     # (T,) int64, 0 = entity A, 1 = entity B
    pad_mask: np.ndarray        # (T,) bool, True where padding
    cls_index: int              # position of the classification token

    def __len__(self) -> int:
        return len(self.input_ids)

    @property
    def num_real_tokens(self) -> int:
        return int((~self.pad_mask).sum())


class SubwordTokenizer:
    """Common interface: text -> subword tokens -> ids, plus pair encoding.

    Subclasses implement :meth:`tokenize`; everything else (id mapping,
    pair packing, truncation, padding) is shared.
    """

    def __init__(self, vocab: Vocab, cls_at_end: bool = False):
        self.vocab = vocab
        self.cls_at_end = cls_at_end
        #: This tokenizer's memo: text -> ids behind :meth:`encode`, and
        #: word -> pieces for subclasses whose ``tokenize`` segments word
        #: by word (WordPiece, BPE call ``memo.word``).  Ids are
        #: vocabulary-specific, so it is never shared between tokenizer
        #: instances; ``memo.clear()`` forgets every text.
        self.memo = TokenizationCache()

    # -- subclass API ---------------------------------------------------------

    def tokenize(self, text: str) -> list[str]:
        raise NotImplementedError

    def detokenize(self, tokens: list[str]) -> str:
        raise NotImplementedError

    # -- shared encoding -------------------------------------------------------

    def encode(self, text: str) -> list[int]:
        """Text to ids without special tokens (memoized)."""
        return self.memo.lookup(text, self._encode_uncached)

    def _encode_uncached(self, text: str) -> list[int]:
        return self.vocab.ids(self.tokenize(text))

    def decode(self, ids: list[int]) -> str:
        specials = self.vocab.special_ids()
        tokens = [self.vocab.id_to_token(i) for i in ids if i not in specials]
        return self.detokenize(tokens)

    def encode_single(self, text: str, max_length: int,
                      pad_to_max: bool = True) -> Encoding:
        """Pack one text as ``[CLS] tokens [SEP]`` (or tokens ``<sep> <cls>``
        for CLS-at-end architectures), truncated and padded."""
        if max_length < 3:
            raise ValueError("max_length must allow CLS/SEP plus content")
        ids = self.encode(text)[: max_length - 2]
        v = self.vocab
        if self.cls_at_end:
            input_ids = ids + [v.sep_id, v.cls_id]
            segment_ids = [0] * (len(ids) + 1) + [2]
            cls_index = len(input_ids) - 1
        else:
            input_ids = [v.cls_id] + ids + [v.sep_id]
            segment_ids = [0] * len(input_ids)
            cls_index = 0
        return self._pad(input_ids, segment_ids, cls_index, max_length,
                         pad_to_max)

    def _pad(self, input_ids: list[int], segment_ids: list[int],
             cls_index: int, max_length: int,
             pad_to_max: bool) -> Encoding:
        """Pad to ``max_length``.  CLS-at-end models (XLNet) pad on the
        *left* so the classification token is always the final position —
        harmless under relative position encodings and padding masks."""
        pad_mask = [False] * len(input_ids)
        if pad_to_max and len(input_ids) < max_length:
            deficit = max_length - len(input_ids)
            pad_ids = [self.vocab.pad_id] * deficit
            pad_segments = [0] * deficit
            pad_flags = [True] * deficit
            if self.cls_at_end:
                input_ids = pad_ids + input_ids
                segment_ids = pad_segments + segment_ids
                pad_mask = pad_flags + pad_mask
                cls_index += deficit
            else:
                input_ids = input_ids + pad_ids
                segment_ids = segment_ids + pad_segments
                pad_mask = pad_mask + pad_flags
        return Encoding(
            input_ids=np.asarray(input_ids, dtype=np.int64),
            segment_ids=np.asarray(segment_ids, dtype=np.int64),
            pad_mask=np.asarray(pad_mask, dtype=bool),
            cls_index=cls_index,
        )

    def encode_pair(self, text_a: str, text_b: str, max_length: int,
                    pad_to_max: bool = True) -> Encoding:
        """Pack an entity pair into one classifier-ready sequence.

        Truncation removes tokens from the end of the *longer* entity
        first, so both entities stay represented even under tight budgets.
        """
        if max_length < 4:
            raise ValueError("max_length must allow CLS/SEP plus content")
        ids_a = self.encode(text_a)
        ids_b = self.encode(text_b)
        budget = max_length - 3  # CLS + 2x SEP
        ids_a, ids_b = _truncate_pair(ids_a, ids_b, budget)

        v = self.vocab
        if self.cls_at_end:
            input_ids = ids_a + [v.sep_id] + ids_b + [v.sep_id, v.cls_id]
            segment_ids = ([0] * (len(ids_a) + 1)
                           + [1] * (len(ids_b) + 1) + [2])
            cls_index = len(input_ids) - 1
        else:
            input_ids = ([v.cls_id] + ids_a + [v.sep_id]
                         + ids_b + [v.sep_id])
            segment_ids = ([0] * (len(ids_a) + 2)
                           + [1] * (len(ids_b) + 1))
            cls_index = 0

        return self._pad(input_ids, segment_ids, cls_index, max_length,
                         pad_to_max)


def _truncate_pair(ids_a: list[int], ids_b: list[int],
                   budget: int) -> tuple[list[int], list[int]]:
    # Closed form of "pop from the longer side (ties: a) until the pair
    # fits": first the longer side is cut down to the shorter's length,
    # then the remaining overflow alternates starting with a.  O(1)
    # instead of one python iteration per dropped token — this is the
    # hottest pure-python loop in the encode path.
    la, lb = len(ids_a), len(ids_b)
    overflow = la + lb - budget
    if overflow <= 0:
        return list(ids_a), list(ids_b)
    if la >= lb:
        cut = min(la - lb, overflow)
        la -= cut
    else:
        cut = min(lb - la, overflow)
        lb -= cut
    remaining = la + lb - budget
    if remaining > 0:
        la -= (remaining + 1) // 2
        lb -= remaining // 2
    return ids_a[:la], ids_b[:lb]
