"""Transformer encoder blocks (Vaswani et al., 2017) shared by BERT,
RoBERTa and DistilBERT.  Post-layer-norm residual blocks, GELU feedforward,
exactly the BERT encoder wiring."""

from __future__ import annotations

import numpy as np

from ..nn import (DTYPE, Dropout, LayerNorm, Linear, Module, ModuleList,
                  MultiHeadAttention, Tensor)
from .config import TransformerConfig

__all__ = ["TransformerEncoderLayer", "TransformerEncoder",
           "sinusoidal_positions", "lexical_match_scores",
           "cross_match_features", "token_similarity",
           "match_bias_inputs"]


NUM_MATCH_FEATURES = 4


def _normalized_rows(table: np.ndarray) -> np.ndarray:
    """Row-normalized copy of an embedding table (zero rows guarded)."""
    norms = np.linalg.norm(table, axis=-1, keepdims=True)
    return table / np.maximum(norms, 1e-8)


def _invalid_mask(input_ids: np.ndarray, invalid_ids,
                  vocab_size: int) -> np.ndarray:
    """Boolean mask of positions holding special/pad tokens.

    A vocab-sized lookup table beats ``np.isin`` (sort-based) for the
    handful of special ids this is called with on every forward batch.
    """
    table = np.zeros(vocab_size, dtype=bool)
    table[list(invalid_ids)] = True
    return table[input_ids]


def token_similarity(embedding_table: np.ndarray,
                     input_ids: np.ndarray) -> np.ndarray:
    """Cosine similarity of raw token embeddings, (B, T, T).

    The shared base matrix behind both :func:`lexical_match_scores` and
    :func:`cross_match_features` — models that need both compute it once
    and pass it to each (the matmul is the dominant cost of either).
    """
    # Normalize the table (vocab rows), not the gather (B*T rows): the
    # gathered vectors are table rows repeated, so this does the same
    # normalization once per vocab entry instead of once per position.
    normalized = _normalized_rows(embedding_table)[np.asarray(input_ids)]
    return normalized @ np.swapaxes(normalized, -1, -2)


def cross_match_features(embedding_table: np.ndarray,
                         input_ids: np.ndarray,
                         segment_ids: np.ndarray,
                         invalid_ids: set[int],
                         similarity: np.ndarray | None = None) -> np.ndarray:
    """Per-position cross-segment matchedness, (B, T, 3).

    For every position: [exact token match exists in the other segment,
    bigram-exact match (this token AND its successor match consecutively
    somewhere in the other segment), max cosine similarity, mean cosine
    similarity] of its raw token embedding against all positions of the
    *other* segment.  The exact channels are noise-free discrimination (a
    token with no counterpart is hard evidence against a match; the
    bigram channel recovers word- and code-level contiguity that subword
    splitting destroys); the cosine channels add soft synonym bridging
    learned by pre-training.  Injected as an embedding channel the
    features are linearly aggregatable by the classifier token.
    Positions holding special/pad tokens get zeros.

    ``similarity`` is an optional precomputed :func:`token_similarity`
    matrix for these exact inputs; it is read, never mutated.
    """
    input_ids = np.asarray(input_ids)
    segment_ids = np.asarray(segment_ids)
    if similarity is None:
        similarity = token_similarity(embedding_table, input_ids)
    cross = segment_ids[:, :, None] != segment_ids[:, None, :]
    invalid = None
    if invalid_ids:
        invalid = _invalid_mask(input_ids, invalid_ids,
                                len(embedding_table))
        cross &= ~invalid[:, :, None]
        cross &= ~invalid[:, None, :]
    equal = input_ids[:, :, None] == input_ids[:, None, :]
    equal &= cross  # exact cross-segment pairs, reusing the buffer
    exact = equal.any(axis=-1).astype(DTYPE)
    # Bigram: positions (i, j) match AND (i+1, j+1) match.  Only the
    # (T-1, T-1) corner can be True, so reduce just that slice.
    bigram = np.zeros(equal.shape[:2], dtype=DTYPE)
    bigram[:, :-1] = (equal[:, :-1, :-1] & equal[:, 1:, 1:]).any(axis=-1)
    # The where=-max skips a full-size np.where scratch array and is
    # exact (max has no accumulation order).  The mean must keep the
    # dense zero-masked sum: a where=-sum's accumulation order varies
    # with array layout, and per-pair results have to be bitwise
    # independent of batch shape (the engine's pair-by-pair failure
    # retry re-scores single pairs and compares against batch output).
    raw_counts = cross.sum(axis=-1)
    has_cross = raw_counts > 0  # same truth table as cross.any(-1)
    best = np.where(
        has_cross,
        similarity.max(axis=-1, where=cross, initial=-np.inf), 0.0)
    counts = np.maximum(raw_counts, 1)
    mean = np.where(has_cross,
                    np.where(cross, similarity, 0.0).sum(axis=-1) / counts,
                    0.0)
    features = np.stack([exact, bigram, best, mean], axis=-1)
    if invalid is not None:
        features[invalid] = 0.0
    return features.astype(DTYPE, copy=False)


def lexical_match_scores(embedding_table: np.ndarray,
                         input_ids: np.ndarray,
                         invalid_ids: set[int],
                         similarity: np.ndarray | None = None) -> np.ndarray:
    """Cosine similarity of raw token embeddings, (B, T, T).

    The diagonal and any row/column belonging to a special or padding
    token are zeroed, so the bias only rewards attention to *other*
    positions holding lexically similar tokens.  Computed outside the
    autodiff tape: the bias seeds matching behaviour, while the embedding
    table keeps training through the ordinary Q/K/V path.

    ``similarity`` is an optional precomputed :func:`token_similarity`
    matrix for these exact inputs.  It is CONSUMED (mutated in place) —
    callers sharing one matrix must pass it here last.
    """
    input_ids = np.asarray(input_ids)
    if similarity is None:
        similarity = token_similarity(embedding_table, input_ids)
    match = similarity
    batch, seq = input_ids.shape
    idx = np.arange(seq)
    match[:, idx, idx] = 0.0
    if invalid_ids:
        invalid = _invalid_mask(input_ids, invalid_ids,
                                len(embedding_table))
        # Zero whole rows, then whole columns through a transposed view
        # — same cells as the (B, T, T) OR-mask without building it.
        match[invalid] = 0.0
        match.swapaxes(1, 2)[invalid] = 0.0
    return match.astype(DTYPE, copy=False)


def match_bias_inputs(embedding_table: np.ndarray, input_ids: np.ndarray,
                      segment_ids: np.ndarray | None,
                      invalid_ids: set[int]
                      ) -> tuple[np.ndarray | None, np.ndarray]:
    """``(match_features, match_scores)`` for one encoder forward.

    Both come from one shared :func:`token_similarity` matrix:
    :func:`cross_match_features` reads it (None without ``segment_ids``,
    which locate the two entities), then :func:`lexical_match_scores`
    consumes it in place.
    """
    similarity = token_similarity(embedding_table, input_ids)
    features = None
    if segment_ids is not None:
        features = cross_match_features(embedding_table, input_ids,
                                        segment_ids, invalid_ids,
                                        similarity=similarity)
    scores = lexical_match_scores(embedding_table, input_ids, invalid_ids,
                                  similarity=similarity)
    return features, scores


def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """The fixed sine/cosine positional encoding of the original paper."""
    position = np.arange(length)[:, None]
    div = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model))
    table = np.zeros((length, d_model), dtype=DTYPE)
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div[: (d_model + 1) // 2])
    return table


class TransformerEncoderLayer(Module):
    """One encoder block: self-attention and feedforward, each with a
    residual connection and post-layer-norm (BERT convention)."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        std = config.initializer_range
        self.pre_norm = config.pre_norm
        self.attention = MultiHeadAttention(
            config.d_model, config.num_heads, rng, dropout=config.dropout,
            match_bias=config.match_bias)
        self.attn_norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.ff_in = Linear(config.d_model, config.d_ff, rng, std=std)
        self.ff_out = Linear(config.d_ff, config.d_model, rng, std=std)
        self.ff_norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.dropout = Dropout(config.dropout, rng)

    def forward(self, hidden: Tensor,
                attention_mask: np.ndarray | None = None,
                match_scores: np.ndarray | None = None) -> Tensor:
        if self.pre_norm:
            attended = self.attention(self.attn_norm(hidden),
                                      attention_mask=attention_mask,
                                      match_scores=match_scores)
            hidden = hidden + self.dropout(attended)
            transformed = self.ff_out(
                self.ff_in(self.ff_norm(hidden)).gelu())
            return hidden + self.dropout(transformed)
        attended = self.attention(hidden, attention_mask=attention_mask,
                                  match_scores=match_scores)
        hidden = self.attn_norm(hidden + self.dropout(attended))
        transformed = self.ff_out(self.ff_in(hidden).gelu())
        return self.ff_norm(hidden + self.dropout(transformed))


class TransformerEncoder(Module):
    """A stack of encoder layers."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList([
            TransformerEncoderLayer(config, rng)
            for _ in range(config.num_layers)
        ])

    def forward(self, hidden: Tensor,
                attention_mask: np.ndarray | None = None,
                match_scores: np.ndarray | None = None,
                return_all: bool = False):
        all_states = [hidden]
        for layer in self.layers:
            hidden = layer(hidden, attention_mask=attention_mask,
                           match_scores=match_scores)
            all_states.append(hidden)
        if return_all:
            return hidden, all_states
        return hidden
