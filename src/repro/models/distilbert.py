"""DistilBERT (Sanh et al., 2019): a purged BERT student.

Per the paper: token-type embeddings and the pooler are removed and the
number of layers is halved; the model is then trained by knowledge
distillation from a BERT teacher (see ``repro.pretraining.distillation``)
with the triple loss (soft targets, MLM, cosine alignment)."""

from __future__ import annotations

import numpy as np

from ..nn import (Dropout, Embedding, LayerNorm, Module, PlainLinear,
                  Tensor, padding_attention_mask)
from .config import TransformerConfig
from .transformer import TransformerEncoder, match_bias_inputs

__all__ = ["DistilBertModel", "DistilBertEmbeddings"]


class DistilBertEmbeddings(Module):
    """Token + position embeddings only — no token-type embeddings."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        std = config.initializer_range
        self.token = Embedding(config.vocab_size, config.d_model, rng, std=std)
        self.position = Embedding(config.max_position, config.d_model, rng,
                                  std=std)
        self.norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.dropout = Dropout(config.dropout, rng)
        self.max_position = config.max_position
        self.match_proj = (PlainLinear(4, config.d_model, rng, std=0.2,
                                       bias=False)
                           if config.match_bias else None)

    def forward(self, input_ids: np.ndarray,
                match_features: np.ndarray | None = None) -> Tensor:
        input_ids = np.asarray(input_ids)
        batch, seq = input_ids.shape
        if seq > self.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position "
                f"{self.max_position}")
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        total = self.token(input_ids) + self.position(positions)
        if match_features is not None and self.match_proj is not None:
            total = total + self.match_proj(Tensor(match_features))
        return self.dropout(self.norm(total))


class DistilBertModel(Module):
    """Half-depth BERT without segment embeddings or pooler."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        if config.arch != "distilbert":
            raise ValueError(
                f"expected arch='distilbert', got {config.arch!r}")
        self.config = config
        self.embeddings = DistilBertEmbeddings(config, rng)
        self.encoder = TransformerEncoder(config, rng)
        self.pooler = None  # removed in the student architecture
        self.special_token_ids: set[int] = {0}

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                pad_mask: np.ndarray | None = None) -> Tensor:
        # DistilBERT has no token-type embeddings; segment_ids are used
        # only to locate the two entities for the matchedness features.
        attention_mask = None
        if pad_mask is not None:
            attention_mask = padding_attention_mask(pad_mask)
        match_features = match_scores = None
        if self.config.match_bias:
            match_features, match_scores = match_bias_inputs(
                self.embeddings.token.weight.data, input_ids, segment_ids,
                self.special_token_ids)
        hidden = self.embeddings(input_ids, match_features=match_features)
        return self.encoder(hidden, attention_mask=attention_mask,
                            match_scores=match_scores)

    def pooled_output(self, hidden: Tensor, cls_index: int = 0) -> Tensor:
        """No pooler: the raw CLS hidden state feeds the classifier."""
        return hidden[:, cls_index, :]
