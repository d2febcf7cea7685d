"""Reverse-mode automatic differentiation on numpy arrays.

This module is the substrate that replaces PyTorch in the reproduction: a
small, dependency-free tensor library with a dynamic tape.  Every operation
records a backward closure on the :class:`Tensor` it produces; calling
:meth:`Tensor.backward` walks the tape in reverse topological order and
accumulates gradients into ``.grad``.

Only the operations needed by the transformer architectures, the RNN
baseline and their training loops are implemented, but each is implemented
fully (broadcasting-aware, batched where applicable).  The ops that carry
a transformer forward (``linear``, ``gelu``, ``softmax``, ``layer_norm``,
``attention_core``) take their forward from the numpy kernels in
:mod:`repro.nn.fused`, so a model has one forward whether the tape is on
(training) or off (inference).
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from . import fused
from .init import DTYPE
from .observe import _THREAD

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# An op's kind is the name of the method that called ``_make``, folded.
_KIND_ALIASES = {
    "__add__": "add", "__radd__": "add", "__neg__": "neg",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow", "__matmul__": "matmul",
    "__getitem__": "getitem",
}


class no_grad:
    """Disable tape recording (used at inference) in the calling thread.

    Usable as a context manager (``with no_grad():``) or as a decorator
    (``@no_grad()``).  Nesting is safe — including re-entering the *same*
    instance — because each ``__enter__`` pushes the previous state onto
    a stack that ``__exit__`` pops, and the ``with`` protocol guarantees
    the pop runs even when an exception escapes the block.  The mode is
    thread-local: two serving workers forwarding at once cannot restore
    each other's saved state, and a worker's forward never switches the
    tape off under a thread that is training.
    """

    def __init__(self):
        self._saved: list[bool] = []

    def __enter__(self):
        self._saved.append(_THREAD.tape.enabled)
        _THREAD.tape.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _THREAD.tape.enabled = self._saved.pop()
        return False

    def __call__(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            # A fresh instance per call keeps the decorated function
            # reentrant; the try/finally restores the saved state even
            # when the wrapped call raises.
            ctx = type(self)()
            ctx.__enter__()
            try:
                return func(*args, **kwargs)
            finally:
                ctx.__exit__(None, None, None)
        return wrapper


def is_grad_enabled() -> bool:
    """Return whether operations in this thread record backward
    closures."""
    return _THREAD.tape.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    """Coerce to a float array, defaulting to the canonical DTYPE.

    Float arrays pass through untouched (gradcheck tests run the whole
    tape in float64 by constructing float64 inputs); everything else —
    python scalars, lists, integer arrays — lands on ``repro.nn.DTYPE``
    so models train in one precision.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            return value
        return value.astype(DTYPE)
    if isinstance(value, np.floating):
        # Numpy float scalars (e.g. a full reduction) keep their own
        # precision, like float arrays do.
        return np.asarray(value)
    return np.asarray(value, dtype=DTYPE)


def _dropout_mask(shape: tuple[int, ...], p: float,
                  rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability ``p``, else
    ``1 / (1 - p)``."""
    keep = 1.0 - p
    # One pass straight into ``dtype``: (r < keep) / keep in float64 and
    # a cast would round 1 / keep to ``dtype`` the same way, through two
    # float64 temporaries.
    return np.multiply(rng.random(shape) < keep,
                       np.dtype(dtype).type(1 / keep), dtype=dtype)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is basic indexing (ints, slices, None,
    Ellipsis), which selects every element at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(part is None or part is Ellipsis
               or isinstance(part, (slice, np.integer))
               or (isinstance(part, int) and not isinstance(part, bool))
               for part in parts)


def _scatter_rows(like: np.ndarray, rows: np.ndarray,
                  grad: np.ndarray) -> np.ndarray:
    """``np.add.at(zeros_like(like), rows, grad)`` for a (V, D) ``like``.

    One 1-D scatter of every element to ``row * D + column``: repeated
    rows accumulate in the same order as the row-wise call, so the sums
    round the same way, without numpy's slow per-row fancy-index loop.
    """
    full = np.zeros_like(like)
    width = like.shape[-1]
    flat = rows.reshape(-1, 1) * width + np.arange(width)
    np.add.at(full.reshape(-1), flat.reshape(-1), grad.reshape(-1))
    return full


class Tensor:
    """A numpy array with an optional gradient tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to the canonical ``repro.nn.DTYPE``
        unless already a float numpy array.
    requires_grad:
        Whether gradients should flow into this tensor.  Intermediate
        tensors inherit this from their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _THREAD.tape.enabled
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...]) -> "Tensor":
        tape = _THREAD.tape
        if tape.enabled:
            out = Tensor(data)
            if any(p.requires_grad for p in parents):
                out.requires_grad = True
                out._parents = parents
        else:
            # No-tape fast path: every op result is a bare array wrapper —
            # no dtype coercion (op outputs are already float arrays), no
            # parent scan, no closure slots to populate.
            out = Tensor.__new__(Tensor)
            out.data = data
            out.grad = None
            out.requires_grad = False
            out._backward = None
            out._parents = ()
        if tape.on_op:
            kind = sys._getframe(1).f_code.co_name
            kind = _KIND_ALIASES.get(kind, kind)
            for on_op in tape.on_op:
                on_op(kind, out, parents)
        return out

    # -- basic properties ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy, detached from the tape)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_note})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            # Scalar fast path: keeps dtype (NEP 50 weak promotion) and
            # skips a tape node for the constant.  float() strips numpy
            # scalar types, which are not "weak" and would upcast.
            other = float(other)
            out = self._make(self.data + other, (self,))
            if out.requires_grad:
                def _backward(grad, a=self):
                    a._accumulate(grad)
                out._backward = _backward
            return out
        other = Tensor._wrap(other)
        out = self._make(self.data + other.data, (self, other))
        if out.requires_grad:
            def _backward(grad, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad, b.data.shape))
            out._backward = _backward
        return out

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self):
                a._accumulate(-grad)
            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self.__add__(-other)
        return self.__add__(-Tensor._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            other = float(other)
            out = self._make(other - self.data, (self,))
            if out.requires_grad:
                def _backward(grad, a=self):
                    a._accumulate(-grad)
                out._backward = _backward
            return out
        return Tensor._wrap(other).__add__(-self)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            other = float(other)
            out = self._make(self.data * other, (self,))
            if out.requires_grad:
                def _backward(grad, a=self, s=other):
                    a._accumulate(grad * s)
                out._backward = _backward
            return out
        other = Tensor._wrap(other)
        out = self._make(self.data * other.data, (self, other))
        if out.requires_grad:
            def _backward(grad, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad * a.data, b.data.shape))
            out._backward = _backward
        return out

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            return self.__mul__(1.0 / other)
        other = Tensor._wrap(other)
        out = self._make(self.data / other.data, (self, other))
        if out.requires_grad:
            def _backward(grad, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad / b.data, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(
                        -grad * a.data / (b.data * b.data), b.data.shape))
            out._backward = _backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            data = float(other) / self.data
            out = self._make(data, (self,))
            if out.requires_grad:
                def _backward(grad, a=self, d=data):
                    a._accumulate(-grad * d / a.data)
                out._backward = _backward
            return out
        return Tensor._wrap(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        out = self._make(self.data ** exponent, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, n=exponent):
                a._accumulate(grad * n * a.data ** (n - 1))
            out._backward = _backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = Tensor._wrap(other)
        out = self._make(self.data @ other.data, (self, other))
        if out.requires_grad:
            def _backward(grad, a=self, b=other):
                if a.requires_grad:
                    ga = grad @ np.swapaxes(b.data, -1, -2)
                    a._accumulate(_unbroadcast(ga, a.data.shape))
                if b.requires_grad:
                    gb = np.swapaxes(a.data, -1, -2) @ grad
                    b._accumulate(_unbroadcast(gb, b.data.shape))
            out._backward = _backward
        return out

    # -- elementwise functions -------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        out = self._make(data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, d=data):
                a._accumulate(grad * d)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:
            def _backward(grad, a=self):
                a._accumulate(grad / a.data)
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        out = self._make(data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, d=data):
                a._accumulate(grad * (1.0 - d * d))
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, d=data):
                a._accumulate(grad * d * (1.0 - d))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make(self.data * mask, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, m=mask):
                a._accumulate(grad * m)
            out._backward = _backward
        return out

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT)."""
        data, tanh = fused.gelu(self.data)
        out = self._make(data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, t=tanh):
                # grad * (0.5 * (1 + t) + 0.5 * x * dt) with
                # dt = (1 - t * t) * c * (1 + 3 * 0.044715 * (x * x)),
                # step for step, on the kernel's own tanh(inner).
                x = a.data
                c = float(np.sqrt(2.0 / np.pi))
                dt = t * t
                np.subtract(1.0, dt, out=dt)
                dt *= c
                x2 = x * x
                x2 *= 3 * 0.044715
                x2 += 1.0
                dt *= x2
                np.multiply(x, 0.5, out=x2)
                x2 *= dt
                g = t + 1.0
                g *= 0.5
                g += x2
                g *= grad
                a._accumulate(g)
            out._backward = _backward
        return out

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def _backward(grad, a=self, axis=axis, keepdims=keepdims):
                g = grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[i] for i in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, axis=axis, keepdims=keepdims, d=data):
                g = grad
                m = d
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                    m = np.expand_dims(m, axis=axis)
                mask = (a.data == m).astype(a.data.dtype)
                # Split gradient evenly among ties to keep it well-defined.
                mask /= np.maximum(
                    mask.sum(axis=axis, keepdims=True) if axis is not None
                    else mask.sum(), 1.0)
                a._accumulate(g * mask)
            out._backward = _backward
        return out

    # -- shape manipulation --------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def _backward(grad, a=self):
                a._accumulate(grad.reshape(a.data.shape))
            out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out = self._make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = tuple(np.argsort(axes))
            def _backward(grad, a=self, inv=inverse):
                a._accumulate(grad.transpose(inv))
            out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,))
        if out.requires_grad:
            def _backward(grad, a=self, idx=index):
                full = np.zeros_like(a.data)
                if _is_basic_index(idx):
                    full[idx] += grad
                else:
                    np.add.at(full, idx, grad)
                a._accumulate(full)
            out._backward = _backward
        return out

    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._wrap(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        out = tensors[0]._make(data, tuple(tensors))
        if out.requires_grad:
            sizes = [t.data.shape[axis] for t in tensors]
            offsets = np.cumsum([0] + sizes)
            def _backward(grad, ts=tensors, offs=offsets, axis=axis):
                for t, start, stop in zip(ts, offs[:-1], offs[1:]):
                    if t.requires_grad:
                        sl = [slice(None)] * grad.ndim
                        sl[axis] = slice(start, stop)
                        t._accumulate(grad[tuple(sl)])
            out._backward = _backward
        return out

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._wrap(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)
        out = tensors[0]._make(data, tuple(tensors))
        if out.requires_grad:
            def _backward(grad, ts=tensors, axis=axis):
                pieces = np.split(grad, len(ts), axis=axis)
                for t, piece in zip(ts, pieces):
                    if t.requires_grad:
                        t._accumulate(np.squeeze(piece, axis=axis))
            out._backward = _backward
        return out

    # -- structured operations -------------------------------------------------------

    def embedding(self, ids: np.ndarray) -> "Tensor":
        """Row lookup ``self[ids]`` where ``self`` is a (V, D) table."""
        ids = np.asarray(ids)
        out = self._make(self.data[ids], (self,))
        if out.requires_grad:
            def _backward(grad, a=self, ids=ids):
                a._accumulate(_scatter_rows(a.data, ids, grad))
            out._backward = _backward
        return out

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a copy with entries where ``mask`` is true set to ``value``."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)
        out = self._make(data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, m=mask):
                a._accumulate(np.where(m, 0.0, grad))
            out._backward = _backward
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        data = fused.softmax(self.data, axis=axis)
        out = self._make(data, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, s=data, axis=axis):
                dot = (grad * s).sum(axis=axis, keepdims=True)
                a._accumulate(s * (grad - dot))
            out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_z
        out = self._make(data, (self,))
        if out.requires_grad:
            softmax = np.exp(data)
            def _backward(grad, a=self, s=softmax, axis=axis):
                a._accumulate(grad - s * grad.sum(axis=axis, keepdims=True))
            out._backward = _backward
        return out

    def dropout(self, p: float, rng: np.random.Generator) -> "Tensor":
        """Inverted dropout; identity when grad is disabled (inference)."""
        if not _THREAD.tape.enabled or p <= 0.0:
            return self
        mask = _dropout_mask(self.data.shape, p, rng, self.data.dtype)
        out = self._make(self.data * mask, (self,))
        if out.requires_grad:
            def _backward(grad, a=self, m=mask):
                a._accumulate(grad * m)
            out._backward = _backward
        return out

    def layer_norm(self, weight: "Tensor", bias: "Tensor",
                   eps: float = 1e-5) -> "Tensor":
        """Layer normalization over the last axis."""
        data, x_hat, inv = fused.layer_norm(self.data, weight.data,
                                            bias.data, eps=eps)
        out = self._make(data, (self, weight, bias))
        if out.requires_grad:
            def _backward(grad, a=self, w=weight, b=bias, x_hat=x_hat,
                          inv=inv):
                axes = tuple(range(grad.ndim - 1))
                if w.requires_grad:
                    w._accumulate((grad * x_hat).sum(axis=axes))
                if b.requires_grad:
                    b._accumulate(grad.sum(axis=axes))
                if a.requires_grad:
                    # inv * (g - mean(g) - x_hat * mean(g * x_hat)), the
                    # means as ndarray.mean computes them (sum, then
                    # divide by an intp count).
                    count = np.intp(grad.shape[-1])
                    g = grad * w.data
                    gx = g * x_hat
                    mean_g = np.add.reduce(g, axis=-1, keepdims=True)
                    np.true_divide(mean_g, count, out=mean_g,
                                   casting="unsafe")
                    mean_gx = np.add.reduce(gx, axis=-1, keepdims=True)
                    np.true_divide(mean_gx, count, out=mean_gx,
                                   casting="unsafe")
                    np.multiply(x_hat, mean_gx, out=gx)
                    g -= mean_g
                    g -= gx
                    g *= inv
                    a._accumulate(g)
            out._backward = _backward
        return out

    def linear(self, weight: "Tensor",
               bias: "Tensor | None" = None) -> "Tensor":
        """Affine map ``self @ weight^T + bias``, ``weight`` stored (out, in).

        The forward is :func:`repro.nn.fused.linear`, where kernel
        counts see every affine map.  The backward is the one the
        ``@`` / transpose / ``+`` chain would record, operand layouts
        included, so its gradients match that chain bit for bit.
        """
        parents = (self, weight) if bias is None else (self, weight, bias)
        data = fused.linear(self.data, weight.data,
                            None if bias is None else bias.data)
        out = self._make(data, parents)
        if out.requires_grad:
            def _backward(grad, x=self, w=weight, b=bias):
                if x.requires_grad:
                    x._accumulate(_unbroadcast(grad @ w.data, x.data.shape))
                if w.requires_grad:
                    gw = np.swapaxes(x.data, -1, -2) @ grad
                    w._accumulate(_unbroadcast(gw, w.data.T.shape).T)
                if b is not None and b.requires_grad:
                    b._accumulate(_unbroadcast(grad, b.data.shape))
            out._backward = _backward
        return out

    @staticmethod
    def attention_core(q: "Tensor | None", k: "Tensor | None",
                       v: "Tensor", scale: float,
                       attention_mask: np.ndarray | None = None,
                       score_bias: "Tensor | None" = None,
                       scores: "Tensor | None" = None,
                       dropout: float = 0.0,
                       rng: np.random.Generator | None = None) -> "Tensor":
        """Scaled dot-product attention over (B, H, T, Dh) heads.

        ``softmax(q @ k^T * scale + score_bias) @ v`` with boolean
        ``attention_mask`` entries (True = masked) excluded from the
        softmax and inverted dropout of rate ``dropout`` (drawn from
        ``rng``, only while the tape is on) on the probabilities.  XLNet
        passes its own pre-scaled relative-position ``scores`` instead of
        ``q``/``k``.  The forward is :func:`repro.nn.fused.attention_core`;
        the backward is written out by hand.
        """
        # v last: the tape walk then visits the operands in the order it
        # did when this core was a chain of separate ops, so gradients
        # into shared inputs accumulate in the same order.
        operands = tuple(t for t in (q, k, scores, score_bias)
                         if t is not None)
        drop = None
        if dropout > 0.0 and _THREAD.tape.enabled:
            shape = (scores.shape if scores is not None
                     else q.shape[:-1] + (k.shape[-2],))
            dtype = np.result_type(*(t.data for t in operands))
            drop = _dropout_mask(shape, dropout, rng, dtype)
        context, probs = fused.attention_core(
            None if q is None else q.data, None if k is None else k.data,
            v.data, scale, attention_mask=attention_mask,
            score_bias=None if score_bias is None else score_bias.data,
            scores=None if scores is None else scores.data,
            dropout_mask=drop)
        out = v._make(context, operands + (v,))
        if out.requires_grad:
            def _backward(grad):
                dropped = probs if drop is None else probs * drop
                if v.requires_grad:
                    v._accumulate(_unbroadcast(
                        np.swapaxes(dropped, -1, -2) @ grad, v.data.shape))
                g = grad @ np.swapaxes(v.data, -1, -2)
                if drop is not None:
                    g = g * drop
                g = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
                if attention_mask is not None:
                    np.copyto(g, 0.0,
                              where=np.asarray(attention_mask, dtype=bool))
                if score_bias is not None and score_bias.requires_grad:
                    score_bias._accumulate(
                        _unbroadcast(g, score_bias.data.shape))
                if scores is not None:
                    if scores.requires_grad:
                        scores._accumulate(
                            _unbroadcast(g, scores.data.shape))
                    return
                g = g * float(scale)
                if q.requires_grad:
                    q._accumulate(_unbroadcast(g @ k.data, q.data.shape))
                if k.requires_grad:
                    gk = np.swapaxes(np.swapaxes(q.data, -1, -2) @ g, -1, -2)
                    k._accumulate(_unbroadcast(gk, k.data.shape))
            out._backward = _backward
        return out

    # -- autograd ----------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar output")
            grad = np.ones_like(self.data)
        observers = _THREAD.tape.observers
        for observer in observers:
            observer.on_backward(self)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        leaf_grads: set[int] = set()
        for node in reversed(topo):
            if node.grad is None:
                continue
            if node._parents:
                step = node._backward
                for observer in observers:
                    step = observer.wrap_backward(node, step)
                step(node.grad)
                # Free intermediate gradients eagerly; keep leaves.
                node.grad = None
            elif id(node.grad) in leaf_grads:
                # ``a + b`` hands one array to both operands; a leaf
                # gets its own copy so in-place edits of one leaf's
                # gradient (clip_grad_norm) cannot reach another's.
                node.grad = node.grad.copy()
            else:
                leaf_grads.add(id(node.grad))
        for observer in observers:
            observer.after_backward(self, topo)

    def zero_grad(self) -> None:
        self.grad = None
