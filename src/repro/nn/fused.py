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

Because every forward runs through this module it is also the dispatch
point for what must see every layer: :func:`count_kernels` (an
observer of kernel calls, :mod:`repro.nn.observe`), :func:`record_activations`
(int8 calibration) and :func:`quantized_inference` (the int8 overlay,
which reroutes :func:`linear` and :func:`attention_core` to q-kernels).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .init import ACC_DTYPE
from .observe import _THREAD, Observer

__all__ = ["linear", "gelu", "softmax", "layer_norm",
           "attention_core", "count_kernels", "qlinear", "qattention_core",
           "quantized_inference", "record_activations"]


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


# Thread-local quantization state.  ``overlay`` maps id(weight array) ->
# QuantizedLinear and reroutes linear calls through the int8 kernels;
# ``record`` accumulates per-channel activation absmax during a
# calibration sweep.  Both piggyback on the same dispatch point so the
# model code needs zero changes: every ``Linear`` forward funnels
# through :func:`linear`.  Thread-local for the same reason as the
# observer slot: concurrent serving workers must not see each other's
# overlays.
_QUANT = threading.local()


@contextmanager
def quantized_inference(overlay):
    """Route linear calls through the int8 kernels inside the block.

    ``overlay`` maps ``id(weight array) -> QuantizedLinear`` (built by
    :meth:`repro.nn.QuantizedWeights.overlay_for`).  Calls whose weight
    is not in the overlay keep the float path.  Nests: the previous
    overlay is restored on exit.  Thread-local, like the observer slot.
    """
    previous = getattr(_QUANT, "overlay", None)
    _QUANT.overlay = dict(overlay)
    try:
        yield
    finally:
        _QUANT.overlay = previous


@contextmanager
def record_activations():
    """Record per-channel input absmax of every :func:`linear` call.

    Yields a ``{id(weight array): absmax per input channel}`` dict that
    fills in as the calibration sweep runs; maxima accumulate across
    calls so one sweep over representative pairs yields the activation
    range of each call site.
    """
    previous = getattr(_QUANT, "record", None)
    ranges: dict[int, np.ndarray] = {}
    _QUANT.record = ranges
    try:
        yield ranges
    finally:
        _QUANT.record = previous


def _record_absmax(ranges: dict[int, np.ndarray], weight: np.ndarray,
                   x: np.ndarray) -> None:
    absmax = np.abs(x).reshape(-1, x.shape[-1]).max(axis=0)
    prior = ranges.get(id(weight))
    if prior is not None:
        absmax = np.maximum(prior, absmax)
    ranges[id(weight)] = absmax


def linear(x: np.ndarray, weight: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ W^T + b`` with ``W`` stored (out, in): the
    forward of :meth:`Tensor.linear`."""
    overlay = getattr(_QUANT, "overlay", None)
    if overlay is not None:
        quantized = overlay.get(id(weight))
        if quantized is not None:
            return qlinear(x, quantized)
    ranges = getattr(_QUANT, "record", None)
    if ranges is not None:
        _record_absmax(ranges, weight, x)
    _notify("linear")
    out = x @ weight.T
    if bias is not None:
        out += bias  # matmul output is owned; += is bitwise a + b
    return out


def qlinear(x: np.ndarray, quantized) -> np.ndarray:
    """int8 per-channel affine map with float32 accumulation.

    ``quantized`` is a :class:`repro.nn.QuantizedLinear`: int8 weight
    payload ``q`` with per-output-channel scales and a calibrated
    per-tensor activation scale.  The input is fake-quantized to the
    int8 grid (round + clip at ±127), the contraction runs in
    ``ACC_DTYPE`` over the cached float copy of the payload (NEP 50
    would promote a raw int8 operand mixed with python floats to
    float64 — RA119 guards that), and the result is rescaled by the
    product of the two scales before the float bias is added.
    """
    _notify("qlinear")
    x32 = np.asarray(x, dtype=ACC_DTYPE)
    xq = x32 * ACC_DTYPE(1.0 / quantized.act_scale)
    np.rint(xq, out=xq)
    np.clip(xq, -127.0, 127.0, out=xq)
    out = xq @ quantized.q32.T
    out *= quantized.out_scale
    if quantized.bias is not None:
        out += quantized.bias
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
    if getattr(_QUANT, "overlay", None) is not None:
        return qattention_core(q, k, v, scale,
                               attention_mask=attention_mask,
                               score_bias=score_bias,
                               mask_value=mask_value, scores=scores,
                               dropout_mask=dropout_mask)
    _notify("attention_core")
    return _attention_math(q, k, v, scale, attention_mask, score_bias,
                           mask_value, scores, dropout_mask)


def qattention_core(q: np.ndarray | None, k: np.ndarray | None,
                    v: np.ndarray, scale: float,
                    attention_mask: np.ndarray | None = None,
                    score_bias: np.ndarray | None = None,
                    mask_value: float = -1e9,
                    scores: np.ndarray | None = None,
                    dropout_mask: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`attention_core` pinned to the quantized accumulation dtype.

    Under a quantized overlay Q/K/V arrive from :func:`qlinear` already
    in ``ACC_DTYPE``; this kernel forces the score and value
    contractions to stay there so the quantized forward keeps the
    float32-accumulation contract end to end even if the surrounding
    model dtype drifts.  Same arithmetic as the float core otherwise.
    """
    _notify("qattention_core")
    if scores is None:
        q = np.asarray(q, dtype=ACC_DTYPE)
        k = np.asarray(k, dtype=ACC_DTYPE)
    else:
        scores = np.asarray(scores, dtype=ACC_DTYPE)
    v = np.asarray(v, dtype=ACC_DTYPE)
    return _attention_math(q, k, v, scale, attention_mask, score_bias,
                           mask_value, scores, dropout_mask)


def _attention_math(q, k, v, scale, attention_mask, score_bias,
                    mask_value, scores, dropout_mask):
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
