"""Length-bucketed batch planning for inference over padded sequences.

Fixed-length padding makes every forward pass cost O(max_length) no
matter how short a pair is.  The scheduler here sorts sequences by their
real (unpadded) token count, chunks the sorted order into batches, and
trims each batch to its own longest member — so a batch of short pairs
runs a short forward pass.  Output order is restored by indexing results
back through the returned index arrays.

Trimming is only applied to right-padded batches (BERT-style, CLS at
position 0): dropping trailing pad columns leaves every real position's
ids, absolute positions and masks untouched, so outputs match the
untrimmed forward up to float summation order.  Left-padded batches
(XLNet, CLS at the sequence end) are *not* trimmed — XLNet's relative-
position score table is a function of the padded length, so shortening
the sequence would change the logits, not just their rounding.  Those
batches still benefit from length-sorted batching.
"""

from __future__ import annotations

import numpy as np

__all__ = ["real_lengths", "plan_buckets", "is_left_padded", "trim_length"]


def real_lengths(pad_masks: np.ndarray) -> np.ndarray:
    """Per-sequence count of real (non-padding) tokens, shape (B,)."""
    return (~np.asarray(pad_masks, dtype=bool)).sum(axis=-1)


def plan_buckets(lengths: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Chunk indices into batches of length-sorted sequences.

    The sort is stable, so equal-length sequences keep their input order
    and the plan is deterministic.  Every index appears in exactly one
    bucket; concatenating the buckets is a permutation of ``range(n)``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    return [order[start: start + batch_size]
            for start in range(0, len(order), batch_size)]


def is_left_padded(pad_masks: np.ndarray) -> bool:
    """Whether any sequence carries padding at position 0 (XLNet-style)."""
    pad_masks = np.asarray(pad_masks, dtype=bool)
    if pad_masks.size == 0:
        return False
    return bool(pad_masks[:, 0].any())


def trim_length(pad_masks: np.ndarray) -> int:
    """The shortest length this right-padded batch can be trimmed to."""
    lengths = real_lengths(pad_masks)
    return max(int(lengths.max(initial=0)), 1)
