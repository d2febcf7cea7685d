"""The numpy kernels behind the differentiable ``Tensor`` ops.

Pure-numpy forward math for the ops that dominate a transformer
forward: the affine map, GELU, softmax, layer norm and the
scaled-dot-product attention core (QK^T -> bias -> mask -> softmax ->
dropout -> V).  :meth:`Tensor.linear`, :meth:`Tensor.gelu`,
:meth:`Tensor.softmax`, :meth:`Tensor.layer_norm` and
:meth:`Tensor.attention_core` compute their forward by calling these
kernels and register a hand-written backward on top, so a model has
exactly one forward: training runs it with the tape on, inference with
the tape off.  Kernels whose backward needs forward intermediates (GELU,
layer norm, the attention core) return them next to the output: the
tape keeps them, inference drops them.

Because every forward runs through this module it is also the one
place that sees every layer: :func:`count_kernels` (an observer of
kernel calls, :mod:`repro.nn.observe`) counts them here.
"""

from __future__ import annotations

import numpy as np

from .observe import _THREAD, Observer

__all__ = ["linear", "gelu", "softmax", "layer_norm",
           "attention_core", "count_kernels"]


def _notify(kind: str) -> None:
    for on_kernel in _THREAD.tape.on_kernel:
        on_kernel(kind)


class count_kernels(Observer, dict):
    """Count kernel invocations on this thread inside the block.

    Yields itself, a ``{kernel name: calls}`` dict that fills in as
    kernels run; used by the serving trace layer to attach kernel mix to
    forward spans.  Nests: every open block counts every kernel.
    """

    def on_kernel(self, kind: str) -> None:
        self[kind] = self.get(kind, 0) + 1


def linear(x: np.ndarray, weight: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ W^T + b`` with ``W`` stored (out, in): the
    forward of :meth:`Tensor.linear`."""
    _notify("linear")
    out = x @ weight.T
    if bias is not None:
        out += bias  # matmul output is owned; += is bitwise a + b
    return out


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU, tanh approximation (as in BERT): the forward of
    :meth:`Tensor.gelu`.

    Returns ``(out, tanh(inner))``; the tape keeps the second for the
    backward, inference drops it.
    """
    _notify("gelu")
    c = float(np.sqrt(2.0 / np.pi))
    # 0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))).  x * x * x,
    # not x ** 3: numpy's pow ufunc is ~100x slower than two multiplies.
    # The in-place chains need two activation-sized arrays in all.
    # (1 + t) * 0.5 is exact, so ((1 + t) * 0.5) * x rounds like
    # (0.5 * x) * (1 + t) and t survives for the backward.
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= c
    np.tanh(t, out=t)
    out = t + 1.0
    out *= 0.5
    out *= x
    return out, t


def softmax(x: np.ndarray, axis: int = -1,
            out: np.ndarray | None = None) -> np.ndarray:
    """Shift-stabilized softmax: the forward of :meth:`Tensor.softmax`.

    Pass ``out=x`` only when the caller owns ``x``: the input is then
    consumed in place and no shifted copy is allocated at all.
    """
    _notify("softmax")
    # Subtract max, exp, divide by sum, in place on the shifted copy —
    # attention scores are (B, H, T, T), the largest arrays in the
    # forward.  The ufunc reductions are what ndarray.max / .sum run,
    # minus their Python-level wrappers.
    peak = np.maximum.reduce(x, axis=axis, keepdims=True)
    if out is x:
        shifted = x
        shifted -= peak
    else:
        shifted = x - peak
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=axis, keepdims=True)
    return shifted


def layer_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
               eps: float = 1e-5
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: the forward of
    :meth:`Tensor.layer_norm`.

    Returns ``(out, x_hat, inv)``: the output, the normalized input and
    ``1 / sqrt(var + eps)``; the tape keeps the last two for the
    backward, inference drops them.  The mean and variance are the
    arithmetic of ``x.mean(-1)`` and ``x.var(-1)`` step for step (numpy
    sums, then divides by an ``intp`` count), so they are bitwise those
    of the two calls; the squared deviations' buffer becomes the output.
    """
    _notify("layer_norm")
    count = np.intp(x.shape[-1])
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    x_hat = x - mean
    out = np.square(x_hat)
    var = np.add.reduce(out, axis=-1, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    inv = 1.0 / np.sqrt(var + eps)
    x_hat *= inv
    np.multiply(x_hat, weight, out=out)
    out += bias
    return out, x_hat, inv


def attention_core(q: np.ndarray | None, k: np.ndarray | None,
                   v: np.ndarray, scale: float,
                   attention_mask: np.ndarray | None = None,
                   score_bias: np.ndarray | None = None,
                   mask_value: float = -1e9,
                   scores: np.ndarray | None = None,
                   dropout_mask: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The QK^T -> bias -> mask -> softmax -> dropout -> V core on
    (B, H, T, Dh): the forward of :meth:`Tensor.attention_core`.

    Scaled scores, optional additive ``score_bias`` (the lexical match
    bias), boolean ``attention_mask`` (True = masked) filled with
    ``mask_value``, softmax over keys, an optional inverted-dropout
    ``dropout_mask`` on the probabilities (training only), then the
    value contraction.  Callers with a non-standard score map (XLNet's
    relative-position scores) pass pre-scaled ``scores`` directly and
    leave ``q``/``k`` as None; only the bias -> ... -> V tail runs then.

    Returns ``(context, probs)``; ``probs`` are the attention weights
    before dropout, which the op's backward needs.
    """
    _notify("attention_core")
    owned = scores is None
    if owned:
        # float() strips numpy scalar types: they are not "weak" under
        # NEP 50 and would silently upcast float32 scores to float64.
        scores = q @ np.swapaxes(k, -1, -2)
        scores *= float(scale)
    if score_bias is not None:
        # Mutate in place only when this frame owns the scores array;
        # a caller-provided scores buffer must stay untouched.
        if owned:
            scores += score_bias
        else:
            scores = scores + score_bias
            owned = True
    if attention_mask is not None:
        mask = np.asarray(attention_mask, dtype=bool)
        if owned:
            np.copyto(scores, mask_value, where=mask)
        else:
            scores = np.where(mask, mask_value, scores)
            owned = True
    probs = softmax(scores, axis=-1, out=scores if owned else None)
    dropped = probs if dropout_mask is None else probs * dropout_mask
    return dropped @ v, probs
