"""Op-level profiler for the ``repro.nn`` autodiff substrate.

Hooks :meth:`Tensor._make` — the single choke point every differentiable
op flows through — to count ops, estimated FLOPs and bytes produced, per
op kind (the kind is the name of the ``Tensor`` method that called
``_make``: ``matmul``, ``softmax``, ``layer_norm``, ...).  Also hooks
:meth:`Tensor.backward`, attributing the standard 2x-forward FLOP
estimate to the ops recorded since the previous backward call (training
loops interleave forward and backward, so that delta is the graph the
backward pass walks).

Usage::

    with profile() as prof:
        loss = model(batch)
        loss.backward()
    print(prof.table())
    prof.ops["matmul"].flops      # exact 2*m*n*k accounting

FLOP numbers are *estimates* (documented per kind in
:data:`_ELEMENTWISE_FACTORS`); they exist to rank hot ops and compare
runs, not to benchmark hardware.  Profiling is process-global and may
not be nested.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..nn.tensor import Tensor

__all__ = ["OpStats", "OpProfile", "profile"]


@dataclass
class OpStats:
    """Aggregated statistics for one op kind."""

    calls: int = 0
    flops: float = 0.0
    bytes: float = 0.0


# Cost in FLOPs per output element for elementwise/structured ops.  A
# transcendental counts ~4 (exp/log/tanh evaluation), plain arithmetic 1.
_ELEMENTWISE_FACTORS = {
    "add": 1.0, "neg": 1.0, "sub": 1.0, "mul": 1.0, "div": 1.0,
    "pow": 2.0, "exp": 4.0, "log": 4.0, "tanh": 4.0, "sigmoid": 5.0,
    "relu": 1.0, "gelu": 9.0,
    "softmax": 6.0, "log_softmax": 6.0, "dropout": 2.0,
    "layer_norm": 8.0, "masked_fill": 1.0,
}

# Pure data movement: zero FLOPs, but bytes still count.
_MOVEMENT = {"reshape", "transpose", "getitem", "embedding", "concat",
             "stack"}

# Normalize dunder/variant caller names to one canonical op kind.
_KIND_ALIASES = {
    "__add__": "add", "__radd__": "add", "__neg__": "neg",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow", "__matmul__": "matmul",
    "__getitem__": "getitem",
}


def _estimate_flops(kind: str, out_size: int, parents) -> float:
    if kind == "matmul":
        # out has shape (..., M, N); the contraction dim K comes from the
        # left operand: 2*M*N*K multiply-adds per output row/col pair.
        inner = parents[0].data.shape[-1] if parents else 1
        return 2.0 * out_size * inner
    if kind == "linear":
        # x @ W^T (2*M*N*K, K = the input width) plus the bias add.
        return (2.0 * parents[0].data.shape[-1] + (len(parents) == 3)) \
            * out_size
    if kind == "attention_core":
        # The P @ V contraction, plus Q @ K^T when the op forms the
        # scores itself (q leads the operands, v closes them), plus ~10
        # FLOPs per score for scale, bias, mask, softmax and dropout.
        values = parents[-1].data
        head_dim, keys = values.shape[-1], values.shape[-2]
        scores = out_size // head_dim * keys
        contractions = 2 if parents[0].data.shape[-1] == head_dim else 1
        return (2.0 * head_dim * contractions + 10.0) * scores
    if kind in _MOVEMENT:
        return 0.0
    if kind in ("sum", "max"):
        # Reductions touch every input element once.
        return float(parents[0].data.size) if parents else float(out_size)
    return _ELEMENTWISE_FACTORS.get(kind, 1.0) * out_size


class OpProfile:
    """Result of one :func:`profile` block."""

    def __init__(self):
        self.ops: dict[str, OpStats] = {}
        self._forward_flops = 0.0
        self._forward_bytes = 0.0
        self._flops_at_backward = 0.0
        self._bytes_at_backward = 0.0

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.ops.values())

    @property
    def total_flops(self) -> float:
        return sum(s.flops for s in self.ops.values())

    @property
    def total_bytes(self) -> float:
        return sum(s.bytes for s in self.ops.values())

    def _record(self, kind: str, data, parents) -> None:
        stats = self.ops.get(kind)
        if stats is None:
            stats = self.ops[kind] = OpStats()
        stats.calls += 1
        flops = _estimate_flops(kind, data.size, parents)
        stats.flops += flops
        stats.bytes += data.nbytes
        self._forward_flops += flops
        self._forward_bytes += data.nbytes

    def _record_backward(self) -> None:
        stats = self.ops.get("backward")
        if stats is None:
            stats = self.ops["backward"] = OpStats()
        stats.calls += 1
        stats.flops += 2.0 * (self._forward_flops - self._flops_at_backward)
        stats.bytes += 2.0 * (self._forward_bytes - self._bytes_at_backward)
        self._flops_at_backward = self._forward_flops
        self._bytes_at_backward = self._forward_bytes

    def as_dict(self) -> dict[str, dict]:
        """JSON-ready ``{kind: {calls, flops, bytes}}``, hottest first."""
        ordered = sorted(self.ops.items(), key=lambda kv: -kv[1].flops)
        return {kind: {"calls": stats.calls, "flops": stats.flops,
                       "bytes": stats.bytes}
                for kind, stats in ordered}

    def table(self) -> str:
        """Aligned op-FLOP table, hottest first."""
        from ..utils.render import format_table
        rows = [[kind, stats["calls"], f"{stats['flops'] / 1e6:.2f}",
                 f"{stats['bytes'] / 1e6:.2f}"]
                for kind, stats in self.as_dict().items()]
        return format_table(["op", "calls", "MFLOPs", "MB"], rows,
                            title="op profile (estimated)")


class profile:
    """Context manager that installs the ``Tensor`` hooks.

    ``with profile() as prof:`` yields the live :class:`OpProfile`; the
    hooks are removed (original methods restored) on exit, even on error.
    """

    _active = False

    def __enter__(self) -> OpProfile:
        if profile._active:
            raise RuntimeError("profile() blocks may not be nested")
        profile._active = True
        prof = OpProfile()
        self._profile = prof
        self._orig_make = Tensor._make
        self._orig_backward = Tensor.backward

        orig_make = self._orig_make

        def _make_profiled(tensor_self, data, parents):
            caller = sys._getframe(1).f_code.co_name
            kind = _KIND_ALIASES.get(caller, caller)
            prof._record(kind, data, parents)
            return orig_make(tensor_self, data, parents)

        orig_backward = self._orig_backward

        def _backward_profiled(tensor_self, grad=None):
            prof._record_backward()
            return orig_backward(tensor_self, grad)

        Tensor._make = _make_profiled
        Tensor.backward = _backward_profiled
        return prof

    def __exit__(self, exc_type, exc, tb) -> bool:
        Tensor._make = self._orig_make
        Tensor.backward = self._orig_backward
        profile._active = False
        return False
