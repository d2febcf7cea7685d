"""Op-level profiler for the ``repro.nn`` autodiff substrate.

An :class:`~repro.nn.observe.Observer` on the calling thread: every
differentiable op, tape on or off, reports to it from
:meth:`Tensor._make`, and it counts ops, estimated FLOPs and bytes
produced per op kind (the name of the ``Tensor`` method that recorded
the op: ``matmul``, ``softmax``, ``layer_norm``, ...).  Each
:meth:`Tensor.backward` call is attributed the standard 2x-forward FLOP
estimate of the ops recorded since the previous backward call (training
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
runs, not to benchmark hardware.  A profile sees the ops of the thread
that opened it; one thread may not nest two.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.observe import Observer

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


class OpProfile(Observer):
    """Result of one :func:`profile` block, filled in as it observes."""

    exclusive = True

    def __init__(self):
        self.ops: dict[str, OpStats] = {}
        # Forward FLOPs and bytes recorded since the last backward call.
        self._pending = OpStats()

    @property
    def total_calls(self) -> int:
        return sum(s.calls for s in self.ops.values())

    @property
    def total_flops(self) -> float:
        return sum(s.flops for s in self.ops.values())

    @property
    def total_bytes(self) -> float:
        return sum(s.bytes for s in self.ops.values())

    def on_op(self, kind: str, out, parents) -> None:
        data = out.data
        stats = self.ops.get(kind)
        if stats is None:
            stats = self.ops[kind] = OpStats()
        stats.calls += 1
        flops = _estimate_flops(kind, data.size, parents)
        stats.flops += flops
        stats.bytes += data.nbytes
        self._pending.flops += flops
        self._pending.bytes += data.nbytes

    def on_backward(self, root) -> None:
        stats = self.ops.get("backward")
        if stats is None:
            stats = self.ops["backward"] = OpStats()
        stats.calls += 1
        stats.flops += 2.0 * self._pending.flops
        stats.bytes += 2.0 * self._pending.bytes
        self._pending = OpStats()

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


def profile() -> OpProfile:
    """``with profile() as prof:`` counts the calling thread's ops into
    the live :class:`OpProfile` ``prof`` until the block exits."""
    return OpProfile()
