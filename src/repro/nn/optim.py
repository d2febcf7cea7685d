"""Optimizers and learning-rate schedules.

The paper fine-tunes with Adam and a linear learning-rate schedule, the
standard recipe for BERT-style classification heads (Devlin et al., 2018).
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "LinearSchedule",
           "ConstantSchedule", "clip_grad_norm"]


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm."""
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: list[Parameter]):
        self.parameters = list(parameters)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # -- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        """Name->array snapshot of the optimizer's internal state.

        Keys are flat strings (``"m.3"``, ``"step_count"``); scalars are
        stored as 0-d arrays so the dict round-trips through
        :func:`repro.nn.save_checkpoint` unchanged.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        if state:
            raise ValueError(
                f"{type(self).__name__} carries no state but the "
                f"checkpoint provides keys {sorted(state)}")

    def _load_slot_arrays(self, state: dict, name: str,
                          slots: list[np.ndarray]) -> None:
        """Copy ``state[f"{name}.{i}"]`` into per-parameter buffers."""
        for i, slot in enumerate(slots):
            key = f"{name}.{i}"
            if key not in state:
                raise ValueError(
                    f"optimizer state missing key {key!r} "
                    f"(expected {len(slots)} {name!r} buffers)")
            value = np.asarray(state[key])
            if value.shape != slot.shape:
                raise ValueError(
                    f"optimizer state shape mismatch for {key!r}: "
                    f"checkpoint {value.shape} vs live {slot.shape}")
            slot[...] = value.astype(slot.dtype)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: list[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad

    def state_dict(self) -> dict:
        state = {f"velocity.{i}": v.copy()
                 for i, v in enumerate(self._velocity)}
        state["lr"] = np.asarray(self.lr)
        return state

    def load_state_dict(self, state: dict) -> None:
        self._load_slot_arrays(state, "velocity", self._velocity)
        if "lr" in state:
            self.lr = float(np.asarray(state["lr"]))


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with decoupled weight decay (AdamW-style).

    The moments of all parameters of one dtype live in one flat ``m``
    and one flat ``v`` buffer; ``_m``/``_v`` are per-parameter views
    into them, which :meth:`state_dict` and :meth:`load_state_dict` read
    and write.  A step updates each run of consecutive parameters that
    have a gradient in one vectorised pass over its slice of the buffers,
    elementwise the expression a per-parameter loop would evaluate, so
    the weights come out bit for bit the same.  Parameters whose
    ``grad`` is None keep their moments and data untouched.
    """

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        by_dtype: dict[np.dtype, list[int]] = {}
        for i, param in enumerate(self.parameters):
            by_dtype.setdefault(param.data.dtype, []).append(i)
        self._m: list[np.ndarray] = [None] * len(self.parameters)
        self._v: list[np.ndarray] = [None] * len(self.parameters)
        # (parameter indices, their offsets into the flat buffers, m, v)
        self._groups = []
        for dtype, members in by_dtype.items():
            offsets = np.cumsum(
                [0] + [self.parameters[i].data.size for i in members])
            m = np.zeros(offsets[-1], dtype=dtype)
            v = np.zeros(offsets[-1], dtype=dtype)
            for i, start, stop in zip(members, offsets[:-1], offsets[1:]):
                shape = self.parameters[i].data.shape
                self._m[i] = m[start:stop].reshape(shape)
                self._v[i] = v[start:stop].reshape(shape)
            self._groups.append((members, offsets, m, v))

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for members, offsets, m, v in self._groups:
            lo = 0
            for has_grad, run in groupby(
                    members, key=lambda i: self.parameters[i].grad
                    is not None):
                run = list(run)
                hi = lo + len(run)
                if has_grad:
                    self._update_run(
                        [self.parameters[i] for i in run],
                        offsets[lo:hi + 1] - offsets[lo],
                        m[offsets[lo]:offsets[hi]],
                        v[offsets[lo]:offsets[hi]], bias1, bias2)
                lo = hi

    def _update_run(self, params: list[Parameter], bounds: np.ndarray,
                    m: np.ndarray, v: np.ndarray,
                    bias1: float, bias2: float) -> None:
        """One pass of the update over consecutive ``params``, whose
        moments are the flat slices ``m`` and ``v`` (parameter ``i`` at
        ``bounds[i]:bounds[i + 1]``).  Each in-place step
        is a commutative twin of the plain per-parameter expression::

            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            update = (m / bias1) / (sqrt(v / bias2) + eps)
                     [+ weight_decay * data]
            data -= lr * update
        """
        grad = np.concatenate([p.grad.reshape(-1) for p in params])
        square = grad * grad
        m *= self.beta1
        grad *= 1.0 - self.beta1
        m += grad
        v *= self.beta2
        square *= 1.0 - self.beta2
        v += square
        update = m / bias1
        denom = np.divide(v, bias2, out=square)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        if self.weight_decay:
            decay = np.concatenate([p.data.reshape(-1) for p in params])
            decay *= self.weight_decay
            update += decay
        update *= self.lr
        for param, start, stop in zip(params, bounds[:-1], bounds[1:]):
            param.data -= update[start:stop].reshape(param.data.shape)

    def state_dict(self) -> dict:
        state = {}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{i}"] = m.copy()
            state[f"v.{i}"] = v.copy()
        state["step_count"] = np.asarray(self._step_count)
        state["lr"] = np.asarray(self.lr)
        return state

    def load_state_dict(self, state: dict) -> None:
        self._load_slot_arrays(state, "m", self._m)
        self._load_slot_arrays(state, "v", self._v)
        if "step_count" not in state:
            raise ValueError("Adam state missing 'step_count'")
        self._step_count = int(np.asarray(state["step_count"]))
        if "lr" in state:
            self.lr = float(np.asarray(state["lr"]))


class LinearSchedule:
    """Linear warmup to ``base_lr`` then linear decay to zero.

    Drives an optimizer's ``lr`` attribute; call :meth:`step` once per
    optimizer step.
    """

    def __init__(self, optimizer: Optimizer, base_lr: float,
                 total_steps: int, warmup_steps: int = 0):
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.optimizer = optimizer
        self.base_lr = base_lr
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self._step_count = 0
        self.optimizer.lr = self.current_lr()

    def current_lr(self) -> float:
        t = self._step_count
        if self.warmup_steps and t < self.warmup_steps:
            return self.base_lr * (t + 1) / self.warmup_steps
        remaining = max(self.total_steps - t, 0)
        denom = max(self.total_steps - self.warmup_steps, 1)
        return self.base_lr * remaining / denom

    def step(self) -> None:
        self._step_count += 1
        self.optimizer.lr = self.current_lr()

    def state_dict(self) -> dict:
        return {"step_count": np.asarray(self._step_count),
                "base_lr": np.asarray(self.base_lr)}

    def load_state_dict(self, state: dict) -> None:
        if "step_count" not in state:
            raise ValueError("LinearSchedule state missing 'step_count'")
        self._step_count = int(np.asarray(state["step_count"]))
        if "base_lr" in state:
            self.base_lr = float(np.asarray(state["base_lr"]))
        self.optimizer.lr = self.current_lr()


class ConstantSchedule:
    """No-op schedule with the same interface as :class:`LinearSchedule`."""

    def __init__(self, optimizer: Optimizer, base_lr: float):
        self.optimizer = optimizer
        self.base_lr = base_lr
        self.optimizer.lr = base_lr

    def step(self) -> None:
        pass

    def state_dict(self) -> dict:
        return {"base_lr": np.asarray(self.base_lr)}

    def load_state_dict(self, state: dict) -> None:
        if "base_lr" in state:
            self.base_lr = float(np.asarray(state["base_lr"]))
        self.optimizer.lr = self.base_lr
