"""XLNet (Yang et al., 2019): autoregressive permutation language model.

Implements the two architectural ingredients the paper highlights:

* **Transformer-XL relative positional attention** — attention scores are
  ``(q + u)·k + (q + v)·r`` where ``r`` embeds the signed distance between
  query and key positions (sinusoidal table, learned projection, learned
  global biases ``u``/``v``).
* **Two-stream self-attention** — during permutation-LM pre-training every
  position keeps a *content* stream ``h`` (sees itself) and a *query*
  stream ``g`` (sees only the preceding positions of the sampled
  factorization order, not itself), so the model can predict a token
  without leaking it.

Fine-tuning (entity matching) uses only the content stream with a fully
bidirectional mask, exactly like BERT — this is why XLNet fine-tunes the
same way but trains slower per step (Table 6 of the paper).

Simplification vs. the original: segment information is an additive
embedding rather than relative segment encoding, and Transformer-XL memory
(segment recurrence) is omitted because EM sequences fit in one window.
Both are documented in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from ..nn import (DTYPE, Dropout, Embedding, LayerNorm, Linear, Module,
                  ModuleList, Parameter, PlainLinear, Tensor)
from ..nn import init
from .config import TransformerConfig
from .transformer import match_bias_inputs, sinusoidal_positions

__all__ = ["XLNetModel", "XLNetLayer", "XLNetRelativeAttention",
           "permutation_masks"]

def _relative_index(seq_len: int) -> np.ndarray:
    """idx[i, j] maps (query i, key j) to the row of the (2T-1) rel table."""
    i = np.arange(seq_len)[:, None]
    j = np.arange(seq_len)[None, :]
    return i - j + seq_len - 1


class XLNetRelativeAttention(Module):
    """Multi-head attention with Transformer-XL relative position scores."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        d, h = config.d_model, config.num_heads
        std = config.initializer_range
        self.num_heads = h
        self.head_dim = d // h
        self.q_proj = Linear(d, d, rng, std=std, bias=False)
        self.k_proj = Linear(d, d, rng, std=std, bias=False)
        self.v_proj = Linear(d, d, rng, std=std, bias=False)
        self.r_proj = Linear(d, d, rng, std=std, bias=False)
        self.out_proj = Linear(d, d, rng, std=std)
        # Global content / position biases (u and v in the paper).
        self.content_bias = Parameter(init.normal(rng, (h, self.head_dim), std=std))
        self.position_bias = Parameter(init.normal(rng, (h, self.head_dim), std=std))
        self.attn_dropout = Dropout(config.dropout, rng)
        self.match_gain = None
        if config.match_bias:
            self.match_gain = Parameter(
                np.full((h,), 2.0, dtype=DTYPE))

    def _heads(self, x: Tensor) -> Tensor:
        b, t, d = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(
            0, 2, 1, 3)

    def forward(self, query_states: Tensor, content_states: Tensor,
                rel_embeddings: Tensor,
                attention_mask: np.ndarray | None = None,
                match_scores: np.ndarray | None = None) -> Tensor:
        """Attend ``query_states`` over keys/values from ``content_states``.

        ``rel_embeddings`` is the (2T-1, D) sinusoidal distance table;
        ``attention_mask`` is boolean, True = masked, broadcastable to
        (B, H, T, T).
        """
        seq_len = content_states.shape[1]
        q = self._heads(self.q_proj(query_states))          # (B,H,T,Dh)
        k = self._heads(self.k_proj(content_states))
        v = self._heads(self.v_proj(content_states))
        r = self.r_proj(rel_embeddings)                     # (2T-1, D)
        r = r.reshape(2 * seq_len - 1, self.num_heads,
                      self.head_dim).transpose(1, 0, 2)     # (H,2T-1,Dh)

        content_scores = (q + self.content_bias.reshape(
            1, self.num_heads, 1, self.head_dim)) @ k.swapaxes(-1, -2)

        q_pos = q + self.position_bias.reshape(
            1, self.num_heads, 1, self.head_dim)
        pos_all = q_pos @ r.swapaxes(-1, -2)                # (B,H,T,2T-1)
        idx = _relative_index(seq_len)
        rows = np.broadcast_to(np.arange(seq_len)[:, None],
                               (seq_len, seq_len))
        position_scores = pos_all[:, :, rows, idx]          # (B,H,T,T)

        scores = (content_scores + position_scores) * (
            1.0 / np.sqrt(self.head_dim))
        score_bias = None
        if match_scores is not None and self.match_gain is not None:
            gain = self.match_gain.reshape(1, -1, 1, 1)
            score_bias = gain * Tensor(match_scores[:, None, :, :])
        dropout = self.attn_dropout
        context = Tensor.attention_core(
            None, None, v, 1.0, attention_mask=attention_mask,
            score_bias=score_bias, scores=scores,
            dropout=dropout.p if dropout.training else 0.0,
            rng=dropout.rng)
        context = context.transpose(0, 2, 1, 3).reshape(
            query_states.shape[0], seq_len, -1)
        return self.out_proj(context)


class XLNetLayer(Module):
    """Relative-attention block with post-LN residuals and GELU FF."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        std = config.initializer_range
        self.pre_norm = config.pre_norm
        self.attention = XLNetRelativeAttention(config, rng)
        self.attn_norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.ff_in = Linear(config.d_model, config.d_ff, rng, std=std)
        self.ff_out = Linear(config.d_ff, config.d_model, rng, std=std)
        self.ff_norm = LayerNorm(config.d_model, eps=config.layer_norm_eps)
        self.dropout = Dropout(config.dropout, rng)

    def _ff(self, hidden: Tensor) -> Tensor:
        if self.pre_norm:
            transformed = self.ff_out(
                self.ff_in(self.ff_norm(hidden)).gelu())
            return hidden + self.dropout(transformed)
        transformed = self.ff_out(self.ff_in(hidden).gelu())
        return self.ff_norm(hidden + self.dropout(transformed))

    def _attend(self, query: Tensor, content: Tensor, rel: Tensor,
                mask, match_scores=None) -> Tensor:
        if self.pre_norm:
            return self.attention(self.attn_norm(query),
                                  self.attn_norm(content), rel, mask,
                                  match_scores=match_scores)
        return self.attention(query, content, rel, mask,
                              match_scores=match_scores)

    def _residual(self, hidden: Tensor, attended: Tensor) -> Tensor:
        if self.pre_norm:
            return hidden + self.dropout(attended)
        return self.attn_norm(hidden + self.dropout(attended))

    def forward(self, hidden: Tensor, rel_embeddings: Tensor,
                attention_mask: np.ndarray | None = None,
                match_scores: np.ndarray | None = None) -> Tensor:
        attended = self._attend(hidden, hidden, rel_embeddings,
                                attention_mask, match_scores=match_scores)
        return self._ff(self._residual(hidden, attended))

    def forward_two_stream(self, h: Tensor, g: Tensor,
                           rel_embeddings: Tensor,
                           content_mask: np.ndarray,
                           query_mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """One block over both streams; keys/values always come from h."""
        h_att = self._attend(h, h, rel_embeddings, content_mask)
        g_att = self._attend(g, h, rel_embeddings, query_mask)
        h_new = self._ff(self._residual(h, h_att))
        g_new = self._ff(self._residual(g, g_att))
        return h_new, g_new


def permutation_masks(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention masks for a factorization order (True = masked).

    ``content_mask[i, j]`` hides j from i unless j precedes i in the order
    or j == i (content stream sees itself).  ``query_mask`` additionally
    hides the position itself, so the query stream must *predict* it.
    """
    order = np.asarray(order)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    before = rank[None, :] < rank[:, None]   # j strictly precedes i
    content_mask = ~(before | np.eye(len(order), dtype=bool))
    query_mask = ~before
    return content_mask, query_mask


class XLNetModel(Module):
    """XLNet encoder with bidirectional fine-tuning and permutation-LM
    pre-training entry points."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        if config.arch != "xlnet":
            raise ValueError(f"expected arch='xlnet', got {config.arch!r}")
        self.config = config
        std = config.initializer_range
        self.token = Embedding(config.vocab_size, config.d_model, rng,
                               std=std)
        self.segment = Embedding(config.type_vocab_size, config.d_model, rng,
                                 std=std)
        self.layers = ModuleList([XLNetLayer(config, rng)
                                  for _ in range(config.num_layers)])
        self.dropout = Dropout(config.dropout, rng)
        # Learnable start vector for the query stream (w in the paper).
        self.query_seed = Parameter(init.normal(rng, (config.d_model,), std=std))
        self.pooler = PlainLinear(config.d_model, config.d_model, rng,
                                  std=std)
        self.match_proj = (PlainLinear(4, config.d_model, rng, std=0.2,
                                       bias=False)
                           if config.match_bias else None)
        self.special_token_ids: set[int] = {0}

    def _rel_embeddings(self, seq_len: int) -> Tensor:
        return Tensor(sinusoidal_positions(2 * seq_len - 1,
                                           self.config.d_model))

    def _embed(self, input_ids: np.ndarray,
               segment_ids: np.ndarray | None,
               match_features: np.ndarray | None) -> Tensor:
        embedded = self.token(np.asarray(input_ids))
        if segment_ids is not None:
            embedded = embedded + self.segment(np.asarray(segment_ids))
        if match_features is not None and self.match_proj is not None:
            embedded = embedded + self.match_proj(Tensor(match_features))
        return self.dropout(embedded)

    def _match_inputs(self, input_ids: np.ndarray,
                      segment_ids: np.ndarray | None):
        if not self.config.match_bias:
            return None, None
        return match_bias_inputs(self.token.weight.data, input_ids,
                                 segment_ids, self.special_token_ids)

    def forward(self, input_ids: np.ndarray,
                segment_ids: np.ndarray | None = None,
                pad_mask: np.ndarray | None = None) -> Tensor:
        """Bidirectional content-stream encoding (fine-tuning mode)."""
        match_features, match_scores = self._match_inputs(input_ids,
                                                          segment_ids)
        hidden = self._embed(input_ids, segment_ids, match_features)
        seq_len = hidden.shape[1]
        attention_mask = None
        if pad_mask is not None:
            attention_mask = np.asarray(pad_mask, bool)[:, None, None, :]
        rel = self._rel_embeddings(seq_len)
        for layer in self.layers:
            hidden = layer(hidden, rel, attention_mask,
                           match_scores=match_scores)
        return hidden

    def pooled_output(self, hidden: Tensor, cls_index: int) -> Tensor:
        """XLNet's classification token sits at the *end* of the sequence."""
        return self.pooler(hidden[:, cls_index, :]).tanh()

    def forward_permutation(self, input_ids: np.ndarray,
                            order: np.ndarray,
                            segment_ids: np.ndarray | None = None) -> Tensor:
        """Two-stream pass under a factorization order; returns the query
        stream g (B, T, D), whose position t encodes everything needed to
        predict token t without seeing it."""
        match_features, _ = self._match_inputs(input_ids, segment_ids)
        hidden = self._embed(input_ids, segment_ids, match_features)
        batch, seq_len, _ = hidden.shape
        content_mask, query_mask = permutation_masks(order)
        content_mask = content_mask[None, None]
        query_mask = query_mask[None, None]
        seed = self.query_seed.reshape(1, 1, -1)
        g = seed + Tensor(np.zeros((batch, seq_len, 1), dtype=DTYPE))
        rel = self._rel_embeddings(seq_len)
        h = hidden
        for layer in self.layers:
            h, g = layer.forward_two_stream(h, g, rel, content_mask,
                                            query_mask)
        return g
