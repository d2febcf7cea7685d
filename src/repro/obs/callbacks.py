"""Training-loop callback protocol.

A :class:`Callback` receives structured dict payloads at the training
lifecycle points; :class:`CallbackList` fans out to several;
:class:`TelemetryCallback` bridges callbacks to a
:class:`~repro.obs.events.TelemetryRun` sink; :class:`LoggingCallback`
prints human-readable progress lines::

    fine_tune(..., callbacks=LoggingCallback(print))

All hooks receive a single ``info`` dict.  Common keys: ``phase``
("finetune" | "pretrain" | "deepmatcher"), then per hook: ``on_step``
gets ``step``/``loss``/``lr``/``grad_norm``/``examples_per_sec``;
``on_eval`` gets ``epoch``/``f1``/``precision``/``recall``;
``on_epoch_end`` gets ``epoch``/``train_loss``/``seconds``.
"""

from __future__ import annotations

from .events import TelemetryRun

__all__ = ["Callback", "CallbackList", "LoggingCallback",
           "TelemetryCallback"]


class Callback:
    """No-op base; override the hooks you care about."""

    def on_train_begin(self, info: dict) -> None:
        pass

    def on_step(self, info: dict) -> None:
        pass

    def on_epoch_end(self, info: dict) -> None:
        pass

    def on_eval(self, info: dict) -> None:
        pass

    def on_checkpoint(self, info: dict) -> None:
        pass

    def on_recovery(self, info: dict) -> None:
        pass

    def on_train_end(self, info: dict) -> None:
        pass


class CallbackList(Callback):
    """Dispatches every hook to an ordered list of callbacks.

    Falsy when empty, so instrumented loops can skip building payload
    dicts entirely (``if callbacks: callbacks.on_step({...})``) — that is
    the disabled-by-default overhead guarantee.
    """

    def __init__(self, callbacks: list[Callback] | None = None):
        self.callbacks = list(callbacks or [])

    def __bool__(self) -> bool:
        return bool(self.callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    @staticmethod
    def resolve(callbacks=None) -> "CallbackList":
        """Normalize user input: ``callbacks`` may be None, a single
        :class:`Callback`, or a sequence of them."""
        if isinstance(callbacks, CallbackList):
            return CallbackList(callbacks.callbacks)
        if callbacks is None:
            return CallbackList()
        if isinstance(callbacks, Callback):
            return CallbackList([callbacks])
        return CallbackList(callbacks)

    def on_train_begin(self, info: dict) -> None:
        for callback in self.callbacks:
            callback.on_train_begin(info)

    def on_step(self, info: dict) -> None:
        for callback in self.callbacks:
            callback.on_step(info)

    def on_epoch_end(self, info: dict) -> None:
        for callback in self.callbacks:
            callback.on_epoch_end(info)

    def on_eval(self, info: dict) -> None:
        for callback in self.callbacks:
            callback.on_eval(info)

    def on_checkpoint(self, info: dict) -> None:
        for callback in self.callbacks:
            callback.on_checkpoint(info)

    def on_recovery(self, info: dict) -> None:
        for callback in self.callbacks:
            callback.on_recovery(info)

    def on_train_end(self, info: dict) -> None:
        for callback in self.callbacks:
            callback.on_train_end(info)


class LoggingCallback(Callback):
    """Formats events into human-readable progress lines for ``log``.

    * fine-tuning: ``epoch 0 (zero-shot) F1 41.2`` then
      ``epoch 3 loss 0.412 F1 87.1 (2.3s)`` per epoch;
    * pre-training: ``step 100/300 loss 5.123`` every ``every`` steps.
    """

    def __init__(self, log=print, every: int = 100):
        self.log = log
        self.every = every
        self._losses: list[float] = []
        self._total_steps: int | None = None

    def on_train_begin(self, info: dict) -> None:
        self._losses = []
        self._total_steps = info.get("steps")

    def on_step(self, info: dict) -> None:
        if info.get("phase") != "pretrain":
            return
        self._losses.append(info["loss"])
        step = info["step"] + 1
        if step % self.every == 0:
            total = self._total_steps or step
            mean = sum(self._losses[-self.every:]) / \
                len(self._losses[-self.every:])
            self.log(f"step {step}/{total} loss {mean:.3f}")

    def on_eval(self, info: dict) -> None:
        if info.get("phase") == "finetune" and info.get("epoch") == 0:
            self.log(f"epoch 0 (zero-shot) F1 {info['f1'] * 100:.1f}")

    def on_epoch_end(self, info: dict) -> None:
        if info.get("phase") != "finetune":
            return
        self.log(f"epoch {info['epoch']} loss {info['train_loss']:.3f} "
                 f"F1 {info['f1'] * 100:.1f} ({info['seconds']:.1f}s)")


class TelemetryCallback(Callback):
    """Forwards every hook as an event on a :class:`TelemetryRun`.

    Also maintains a few registry metrics on the run
    (``train.steps`` counter, ``train.loss`` gauge, ``train.step_seconds``
    histogram) so the closing ``metric`` events summarise the loop.
    """

    _KINDS = {"on_train_begin": "train_begin", "on_step": "step",
              "on_epoch_end": "epoch_end", "on_eval": "eval",
              "on_checkpoint": "checkpoint", "on_recovery": "recovery",
              "on_train_end": "train_end"}

    def __init__(self, run: TelemetryRun):
        self.run = run

    def on_train_begin(self, info: dict) -> None:
        self.run.emit("train_begin", **info)

    def on_step(self, info: dict) -> None:
        self.run.emit("step", **info)
        registry = self.run.registry
        registry.counter("train.steps").inc()
        registry.gauge("train.loss").set(info["loss"])
        if "seconds" in info:
            registry.histogram("train.step_seconds").observe(
                info["seconds"])

    def on_epoch_end(self, info: dict) -> None:
        self.run.emit("epoch_end", **info)

    def on_eval(self, info: dict) -> None:
        self.run.emit("eval", **info)

    def on_checkpoint(self, info: dict) -> None:
        self.run.emit("checkpoint", **info)
        self.run.registry.counter("resilience.checkpoints").inc()

    def on_recovery(self, info: dict) -> None:
        self.run.emit("recovery", **info)
        self.run.registry.counter("resilience.recoveries").inc()

    def on_train_end(self, info: dict) -> None:
        self.run.emit("train_end", **info)
