"""Per-thread tape state: the grad-mode switch and the observer slot.

:meth:`Tensor._make` (every op), :meth:`Tensor.backward` and the
:mod:`repro.nn.fused` kernels read one per-thread object: ``enabled``
(the :class:`~repro.nn.no_grad` switch) and the :class:`Observer` blocks
open on the thread, such as the op profiler, the tape sanitizer and the
kernel counter.  Every observer on a thread sees every event of that
thread, and no ``Tensor`` method is ever reassigned.
"""

from __future__ import annotations

import threading

__all__ = ["Observer", "attached"]


class _TapeState:
    """One thread's state; slotted, so an op pays one ``threading.local``
    read.  Ops and kernels dispatch to the handlers observers override."""

    __slots__ = ("enabled", "observers", "on_op", "on_kernel")

    def __init__(self):
        self.enabled = True
        self.observers: tuple[Observer, ...] = ()
        self.on_op: tuple = ()       # overridden ``on_op`` handlers
        self.on_kernel: tuple = ()   # overridden ``on_kernel`` handlers


class _Thread(threading.local):
    def __init__(self):
        # Runs on each thread's first access: recording on, no observer.
        self.tape = _TapeState()


_THREAD = _Thread()


class Observer:
    """A context manager that receives its thread's tape events while open.

    Every event is a no-op here; a subclass overrides the ones it
    watches, and an event may raise to abort the op or the backward.
    """

    #: Refuse to open a second observer of this type on one thread.
    exclusive = False

    def __enter__(self):
        current = _THREAD.tape.observers
        if self.exclusive and any(type(o) is type(self) for o in current):
            raise RuntimeError(f"{type(self).__name__} blocks may not be "
                               f"nested on one thread")
        _open(current + (self,))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Remove by identity: blocks may close in any order.
        _open(tuple(o for o in _THREAD.tape.observers if o is not self))
        return False

    def on_op(self, kind: str, out, parents) -> None:
        """``Tensor`` method ``kind`` made ``out`` from ``parents``."""

    def on_kernel(self, kind: str) -> None:
        """The :mod:`repro.nn.fused` kernel ``kind`` ran."""

    def on_backward(self, root) -> None:
        """``root.backward()`` started."""

    def wrap_backward(self, node, fn):
        """The closure backward runs in place of ``node``'s own ``fn``."""
        return fn

    def after_backward(self, root, topo) -> None:
        """Gradients flowed from ``root`` through every tensor in ``topo``."""


def _open(observers: tuple[Observer, ...]) -> None:
    tape = _THREAD.tape
    tape.observers = observers
    tape.on_op = tuple(o.on_op for o in observers
                       if type(o).on_op is not Observer.on_op)
    tape.on_kernel = tuple(o.on_kernel for o in observers
                           if type(o).on_kernel is not Observer.on_kernel)


def attached() -> tuple[Observer, ...]:
    """The observers open on the calling thread, oldest first."""
    return _THREAD.tape.observers
