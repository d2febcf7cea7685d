"""Multi-head scaled dot-product attention (Vaswani et al., 2017)."""

from __future__ import annotations

import numpy as np

from .init import DTYPE
from .layers import Dropout, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["MultiHeadAttention", "split_heads", "merge_heads",
           "padding_attention_mask"]


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, T, D) -> (B, H, T, D/H)."""
    batch, seq, dim = x.shape
    head_dim = dim // num_heads
    return x.reshape(batch, seq, num_heads, head_dim).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    """(B, H, T, D/H) -> (B, T, D)."""
    batch, heads, seq, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)


class MultiHeadAttention(Module):
    """Self- or cross-attention with optional additive masking.

    Parameters
    ----------
    d_model:
        Model width; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads.
    dropout:
        Dropout applied to the attention probabilities.
    """

    def __init__(self, d_model: int, num_heads: int,
                 rng: np.random.Generator, dropout: float = 0.1,
                 match_bias: bool = False):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(
                f"d_model={d_model} not divisible by num_heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, rng)
        self.k_proj = Linear(d_model, d_model, rng)
        self.v_proj = Linear(d_model, d_model, rng)
        self.out_proj = Linear(d_model, d_model, rng)
        self.attn_dropout = Dropout(dropout, rng)
        # Lexical match bias (scale-bridging adaptation, see DESIGN.md):
        # per-head gains on a token-similarity score added to the logits.
        # Large pre-trained models grow such "matching heads" during
        # pre-training; at this reproduction's scale they are seeded.
        self.match_gain = None
        if match_bias:
            from .module import Parameter
            self.match_gain = Parameter(
                np.full((num_heads,), 2.0, dtype=DTYPE))

    def forward(self, query: Tensor, key: Tensor | None = None,
                value: Tensor | None = None,
                attention_mask: np.ndarray | None = None,
                match_scores: np.ndarray | None = None) -> Tensor:
        """Attend ``query`` over ``key``/``value`` (defaulting to self-attention).

        ``attention_mask`` is a boolean array broadcastable to
        (B, H, T_q, T_k); True entries are *masked out* (ignored).
        ``match_scores`` is an optional (B, T_q, T_k) token-similarity
        matrix added to the attention logits through the learnable
        per-head ``match_gain``.
        """
        key = query if key is None else key
        value = key if value is None else value
        q = split_heads(self.q_proj(query), self.num_heads)
        k = split_heads(self.k_proj(key), self.num_heads)
        v = split_heads(self.v_proj(value), self.num_heads)
        score_bias = None
        if match_scores is not None and self.match_gain is not None:
            gain = self.match_gain.reshape(1, self.num_heads, 1, 1)
            score_bias = gain * Tensor(match_scores[:, None, :, :])
        dropout = self.attn_dropout
        context = Tensor.attention_core(
            q, k, v, 1.0 / np.sqrt(self.head_dim),
            attention_mask=attention_mask, score_bias=score_bias,
            dropout=dropout.p if dropout.training else 0.0,
            rng=dropout.rng)
        return self.out_proj(merge_heads(context))


def padding_attention_mask(pad_mask: np.ndarray) -> np.ndarray:
    """Turn a (B, T) key padding mask (True = pad) into (B, 1, 1, T)."""
    pad_mask = np.asarray(pad_mask, dtype=bool)
    return pad_mask[:, None, None, :]
