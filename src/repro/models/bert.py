"""BERT (Devlin et al., 2018): bidirectional encoder with learned token /
position / segment embeddings, a CLS pooler, and MLM + NSP heads."""

from __future__ import annotations

import numpy as np

from ..nn import (Dropout, Embedding, LayerNorm, Linear, Module,
                  PlainLinear, Tensor, padding_attention_mask)
from .config import TransformerConfig
from .transformer import TransformerEncoder, match_bias_inputs

__all__ = ["BertEmbeddings", "BertModel", "BertPretrainingHeads"]


class BertEmbeddings(Module):
    """Sum of token, learned-position and segment embeddings, then LN."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        std = config.initializer_range
        self.token = Embedding(config.vocab_size, config.d_model, rng, std=std)
        self.position = Embedding(config.max_position, config.d_model, rng,
                                  std=std)
        self.segment = Embedding(config.type_vocab_size, config.d_model, rng,
                                 std=std)
        self.norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.dropout = Dropout(config.dropout, rng)
        self.max_position = config.max_position
        # Matchedness channel (see transformer.cross_match_features).
        self.match_proj = (PlainLinear(4, config.d_model, rng, std=0.2,
                                       bias=False)
                           if config.match_bias else None)

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                match_features: np.ndarray | None = None) -> Tensor:
        input_ids = np.asarray(input_ids)
        batch, seq = input_ids.shape
        if seq > self.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position "
                f"{self.max_position}")
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        if segment_ids is None:
            segment_ids = np.zeros_like(input_ids)
        total = (self.token(input_ids) + self.position(positions)
                 + self.segment(segment_ids))
        if match_features is not None and self.match_proj is not None:
            total = total + self.match_proj(Tensor(match_features))
        return self.dropout(self.norm(total))


class BertModel(Module):
    """Encoder backbone; also the backbone for RoBERTa (identical arch)."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator,
                 with_pooler: bool = True):
        super().__init__()
        self.config = config
        self.embeddings = BertEmbeddings(config, rng)
        self.encoder = TransformerEncoder(config, rng)
        self.pooler = (PlainLinear(config.d_model, config.d_model, rng,
                                   std=config.initializer_range)
                       if with_pooler else None)
        # Ids whose rows are excluded from the lexical match bias; set by
        # the tokenizer-aware caller (defaults to id 0 = padding).
        self.special_token_ids: set[int] = {0}

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                pad_mask: np.ndarray | None = None) -> Tensor:
        """Return final hidden states (B, T, D)."""
        attention_mask = None
        if pad_mask is not None:
            attention_mask = padding_attention_mask(pad_mask)
        match_features = match_scores = None
        if self.config.match_bias:
            match_features, match_scores = match_bias_inputs(
                self.embeddings.token.weight.data, input_ids, segment_ids,
                self.special_token_ids)
        hidden = self.embeddings(input_ids, segment_ids,
                                 match_features=match_features)
        return self.encoder(hidden, attention_mask=attention_mask,
                            match_scores=match_scores)

    def pooled_output(self, hidden: Tensor,
                      cls_index: int = 0) -> Tensor:
        """Tanh-pooled representation of the classification token."""
        cls_state = hidden[:, cls_index, :]
        if self.pooler is None:
            return cls_state
        return self.pooler(cls_state).tanh()


class BertPretrainingHeads(Module):
    """MLM vocabulary head (tied-style projection) and NSP head."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator,
                 with_nsp: bool = True):
        super().__init__()
        std = config.initializer_range
        self.transform = Linear(config.d_model, config.d_model, rng, std=std)
        self.transform_norm = LayerNorm(config.d_model,
                                        eps=config.layer_norm_eps)
        self.decoder = Linear(config.d_model, config.vocab_size, rng, std=std)
        self.nsp = (Linear(config.d_model, 2, rng, std=std)
                    if with_nsp else None)

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        transformed = self.transform_norm(self.transform(hidden).gelu())
        return self.decoder(transformed)

    def nsp_logits(self, pooled: Tensor) -> Tensor:
        if self.nsp is None:
            raise RuntimeError("this model was built without an NSP head "
                               "(RoBERTa drops the NSP objective)")
        return self.nsp(pooled)
