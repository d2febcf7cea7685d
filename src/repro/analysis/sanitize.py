"""Runtime tape sanitizer: an opt-in anomaly mode for the autodiff tape.

Analogue of ``torch.autograd.set_detect_anomaly``: inside a
:class:`detect_anomalies` block every :meth:`Tensor._make` call checks the
freshly produced activation for NaN/Inf, and every :meth:`Tensor.backward`
call wraps the recorded closures so each gradient is checked as it flows —
finiteness of the incoming gradient, finiteness and shape of every parent
gradient after accumulation (a wrong ``_unbroadcast`` shows up here), and
leaf parameters that the walk never reached.  Failures raise
:class:`AnomalyError` naming the originating op, with the active
``repro.obs`` tracing-span path for run-level provenance::

    with trace("fine-tune"), detect_anomalies():
        loss = model(batch)
        loss.backward()
    # -> AnomalyError: op 'log' produced a non-finite activation ...
    #    [span: fine-tune/epoch]

The block is an :class:`~repro.nn.observe.Observer`, like
:mod:`repro.obs.profiler`: it sees the ops and backward passes of the
thread that opened it.  The mode is strictly opt-in because the checks
scan every array produced; use it to localize a NaN, not in production
loops.  While active, produced tensors are retained for provenance, so
wrap one forward/backward step, not a whole training run.
"""

from __future__ import annotations

import sys

import numpy as np

from ..nn.observe import Observer, attached
from ..nn.tensor import Tensor
from ..obs.tracing import default_tracer

__all__ = ["AnomalyError", "detect_anomalies", "is_sanitizing"]


class AnomalyError(RuntimeError):
    """A numerical anomaly caught by :class:`detect_anomalies`.

    Attributes
    ----------
    op:
        Canonical name of the Tensor op that produced the bad value
        (``"matmul"``, ``"softmax"``, ...; ``"?"`` for tensors created
        outside the sanitized block).
    phase:
        ``"forward"`` or ``"backward"``.
    span_path:
        Slash-joined path of the tracing spans active when the anomaly
        surfaced ('' if none were open).
    """

    def __init__(self, message: str, op: str = "?", phase: str = "forward"):
        span_path = default_tracer().active_path()
        if span_path:
            message = f"{message} [span: {span_path}]"
        super().__init__(message)
        self.op = op
        self.phase = phase
        self.span_path = span_path


def is_sanitizing() -> bool:
    """Whether a :class:`detect_anomalies` block is open on this thread."""
    return any(isinstance(o, detect_anomalies) for o in attached())


def _describe(values: np.ndarray) -> str:
    nan = int(np.isnan(values).sum())
    inf = int(np.isinf(values).sum())
    parts = []
    if nan:
        parts.append(f"{nan} NaN")
    if inf:
        parts.append(f"{inf} Inf")
    return f"{' + '.join(parts)} of {values.size} elements"


class detect_anomalies(Observer):
    """Context manager that sanitizes the calling thread's tape.

    Parameters
    ----------
    parameters:
        Optional iterable of leaf Tensors (typically
        ``model.parameters()``).  After every ``backward()`` inside the
        block, any of them still holding ``grad is None`` raises — the
        dead-leaf check for parameters that silently fell off the tape.
        Only pass parameters that the loss actually depends on.
    check_dead_leaves:
        Also flag any ``requires_grad`` leaf *reachable from the output*
        that ends ``backward()`` without a gradient (default True).
    check_promotion:
        Flag ops whose output dtype is wider than every floating parent
        (the silent float32→float64 promotion this repo once shipped).
        One of ``"raise"``, ``"warn"`` (stderr) or ``"ignore"``;
        default ``"raise"``.
    """

    exclusive = True

    def __init__(self, parameters=None, check_dead_leaves: bool = True,
                 check_promotion: str = "raise"):
        if check_promotion not in ("raise", "warn", "ignore"):
            raise ValueError(
                f"check_promotion must be 'raise', 'warn' or 'ignore', "
                f"got {check_promotion!r}")
        self._parameters = list(parameters) if parameters is not None else []
        self._check_dead_leaves = check_dead_leaves
        self._check_promotion = check_promotion
        # id(tensor) -> (tensor, op kind).  Holds a strong reference so
        # ids are never recycled while the block is active; cleared on
        # exit.  This is what makes anomaly mode a debugging tool, not a
        # production mode.
        self._provenance: dict[int, tuple[Tensor, str]] = {}

    # -- provenance ----------------------------------------------------

    def _op_of(self, tensor: Tensor) -> str:
        entry = self._provenance.get(id(tensor))
        return entry[1] if entry is not None else "?"

    # -- observer events and checks ------------------------------------

    def on_op(self, kind: str, out: Tensor, parents) -> None:
        data = out.data
        if data.dtype.kind == "f" and not np.isfinite(data).all():
            lineage = ", ".join(self._op_of(p) for p in parents) or "leaf"
            raise AnomalyError(
                f"op {kind!r} produced a non-finite activation "
                f"({_describe(data)}; parents: {lineage})",
                op=kind, phase="forward")
        if self._check_promotion != "ignore":
            parent_dtypes = {p.data.dtype for p in parents
                             if p.data.dtype.kind == "f"}
            if (parent_dtypes and data.dtype.kind == "f"
                    and all(data.dtype.itemsize > d.itemsize
                            for d in parent_dtypes)):
                message = (f"op {kind!r} silently promoted "
                           f"{'/'.join(sorted(d.name for d in parent_dtypes))}"
                           f" inputs to {data.dtype.name}")
                if self._check_promotion == "raise":
                    raise AnomalyError(message, op=kind, phase="forward")
                print(f"detect_anomalies: {message}", file=sys.stderr)
        self._provenance[id(out)] = (out, kind)

    def _check_gradient(self, grad: np.ndarray, op: str, what: str) -> None:
        if grad.dtype.kind == "f" and not np.isfinite(grad).all():
            raise AnomalyError(
                f"non-finite gradient {what} op {op!r} "
                f"({_describe(grad)})", op=op, phase="backward")

    def wrap_backward(self, node: Tensor, fn):
        kind = self._op_of(node)

        def _sanitized(grad, node=node, fn=fn, kind=kind, state=self):
            state._check_gradient(grad, kind, "flowing into")
            try:
                fn(grad)
            except AnomalyError:
                raise
            except Exception as exc:
                raise AnomalyError(
                    f"backward of op {kind!r} failed: {exc}",
                    op=kind, phase="backward") from exc
            for parent in node._parents:
                if not parent.requires_grad or parent.grad is None:
                    continue
                pgrad = parent.grad
                if pgrad.shape != parent.data.shape:
                    raise AnomalyError(
                        f"backward of op {kind!r} accumulated a gradient "
                        f"of shape {pgrad.shape} into a parent of shape "
                        f"{parent.data.shape} (broken _unbroadcast?)",
                        op=kind, phase="backward")
                state._check_gradient(pgrad, kind, "produced by")

        return _sanitized

    def after_backward(self, root: Tensor, reachable: list[Tensor]) -> None:
        if self._check_dead_leaves:
            for node in reachable:
                if (node.requires_grad and not node._parents
                        and node.grad is None):
                    raise AnomalyError(
                        f"leaf tensor of shape {node.data.shape} is "
                        f"reachable from the output but received no "
                        f"gradient (a backward closure skipped it)",
                        op="backward", phase="backward")
        for param in self._parameters:
            if param.requires_grad and param.grad is None:
                raise AnomalyError(
                    f"parameter of shape {param.data.shape} never "
                    f"received a gradient — it is not connected to the "
                    f"loss", op="backward", phase="backward")

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._provenance.clear()
        return super().__exit__(exc_type, exc, tb)
