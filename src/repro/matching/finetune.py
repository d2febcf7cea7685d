"""Fine-tuning a pre-trained transformer for entity matching.

Implements the paper's protocol (§5.2.2): Adam with a linear learning-rate
schedule, the CLS hidden state into a fresh classification head, and
per-epoch evaluation on the test split — including the *zero-shot*
(epoch 0, no fine-tuning) point used in the convergence analysis.

Instrumentation: the loop reports through the :mod:`repro.obs` callback
protocol — ``train_begin``, per-step ``step`` (loss / lr / grad-norm /
examples-per-sec), per-epoch ``eval`` + ``epoch_end``, and ``train_end``
— and wraps epochs/evals in tracing spans.  With no callbacks, the
loop skips all payload construction.

Resilience: pass ``resilience=ResilienceConfig(...)`` to snapshot the
*complete* training state — model, optimizer, LR schedule, RNG stream,
shuffle order, loop counters, epoch history — periodically and at every
epoch boundary, to resume an interrupted run **bit-identically** to the
uninterrupted one, and to guard each step against divergence (NaN/Inf
or loss spikes) with rollback to the last good snapshot plus LR backoff.
Checkpoint and recovery activity is reported through ``on_checkpoint``/
``on_recovery`` callbacks (``checkpoint``/``recovery`` telemetry events).
With ``resilience=None`` (the default) none of this machinery is touched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data import EMDataset
from ..models import SequenceClassifier
from ..nn import (Adam, CheckpointError, LinearSchedule, Module,
                  apply_state_dict, clip_grad_norm, cross_entropy, no_grad)
from ..obs import CallbackList, trace
from ..pretraining import PretrainedModel
from ..resilience import (ResilienceConfig, DivergenceGuard,
                          TrainingDiverged, pack_state, unpack_state)
from ..utils import child_rng, get_rng_state, set_rng_state
from .metrics import MatchingMetrics, evaluate_predictions
from .serializer import (EncodedPairs, choose_max_length, encode_dataset,
                         iter_bucketed, uniform_cls_index)

__all__ = ["FineTuneConfig", "EpochRecord", "FineTuneResult", "fine_tune",
           "evaluate_classifier"]


@dataclass
class FineTuneConfig:
    """Knobs of one fine-tuning run."""

    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 5e-4
    warmup_fraction: float = 0.1
    max_length_cap: int = 64
    grad_clip: float = 1.0
    eval_batch_size: int = 64
    # EM candidate sets are heavily imbalanced (10-25 % matches); weighting
    # the loss by inverse class frequency removes the all-negative
    # attractor that otherwise dominates early fine-tuning at small scale.
    balance_classes: bool = True


@dataclass
class EpochRecord:
    """Metrics after one epoch (epoch 0 = zero-shot, before training)."""

    epoch: int
    train_loss: float
    test_metrics: MatchingMetrics
    seconds: float

    @property
    def f1(self) -> float:
        return self.test_metrics.f1


@dataclass
class FineTuneResult:
    classifier: SequenceClassifier
    history: list[EpochRecord] = field(default_factory=list)
    max_length: int = 0

    def _require_history(self) -> list[EpochRecord]:
        if not self.history:
            raise ValueError(
                "FineTuneResult.history is empty — the run recorded no "
                "epochs, so best_f1/final_f1 are undefined")
        return self.history

    @property
    def best_f1(self) -> float:
        return max(r.f1 for r in self._require_history())

    @property
    def final_f1(self) -> float:
        return self._require_history()[-1].f1

    def f1_curve(self) -> list[float]:
        """F1 per epoch, starting with the zero-shot point."""
        return [r.f1 for r in self.history]

    def epoch_seconds(self) -> list[float]:
        return [r.seconds for r in self.history if r.epoch > 0]


def _predict(classifier: SequenceClassifier, encoded: EncodedPairs,
             batch_size: int) -> np.ndarray:
    # Length-bucketed evaluation: batches run sorted by real token count
    # with right-padded batches trimmed to their own max (iter_bucketed);
    # results are scattered back into input order.
    predictions = np.zeros(len(encoded), dtype=np.int64)
    with no_grad():
        for indices, batch in iter_bucketed(encoded, batch_size):
            logits = classifier(
                batch.input_ids, segment_ids=batch.segment_ids,
                pad_mask=batch.pad_masks,
                cls_index=uniform_cls_index(batch.cls_indices))
            predictions[indices] = logits.numpy().argmax(axis=-1)
    return predictions


def evaluate_classifier(classifier: SequenceClassifier,
                        encoded: EncodedPairs,
                        batch_size: int = 64) -> MatchingMetrics:
    """Precision/recall/F1 of a classifier on encoded pairs."""
    classifier.eval()
    predictions = _predict(classifier, encoded, batch_size)
    return evaluate_predictions(encoded.labels, predictions)


def _eval_info(epoch: int, metrics: MatchingMetrics, **extra) -> dict:
    info = {"phase": "finetune", "epoch": epoch, "f1": metrics.f1,
            "precision": metrics.precision, "recall": metrics.recall}
    info.update(extra)
    return info


def _record_to_dict(record: EpochRecord) -> dict:
    m = record.test_metrics
    return {"epoch": record.epoch, "train_loss": record.train_loss,
            "seconds": record.seconds,
            "metrics": [m.precision, m.recall, m.f1, m.true_positives,
                        m.false_positives, m.false_negatives,
                        m.true_negatives]}


def _record_from_dict(payload: dict) -> EpochRecord:
    p, r, f1, tp, fp, fn, tn = payload["metrics"]
    metrics = MatchingMetrics(
        precision=float(p), recall=float(r), f1=float(f1),
        true_positives=int(tp), false_positives=int(fp),
        false_negatives=int(fn), true_negatives=int(tn))
    return EpochRecord(epoch=int(payload["epoch"]),
                       train_loss=float(payload["train_loss"]),
                       test_metrics=metrics,
                       seconds=float(payload["seconds"]))


class _ResumeMismatch(CheckpointError):
    """A snapshot was produced by an incompatible run configuration."""


def _check_resume_compatible(meta: dict, expected: dict, path) -> None:
    if meta.get("kind") != "finetune":
        raise _ResumeMismatch(
            f"snapshot {path} is a {meta.get('kind')!r} checkpoint, not a "
            f"fine-tune one", path=path)
    diffs = [f"{key}: snapshot={meta.get(key)!r} run={value!r}"
             for key, value in expected.items() if meta.get(key) != value]
    if diffs:
        raise _ResumeMismatch(
            f"snapshot {path} belongs to a different run — "
            + "; ".join(diffs), path=path, keys=sorted(expected))


def fine_tune(pretrained: PretrainedModel, train: EMDataset,
              test: EMDataset, config: FineTuneConfig | None = None,
              seed: int = 0, callbacks=None,
              resilience: ResilienceConfig | None = None) -> FineTuneResult:
    """Fine-tune ``pretrained`` on ``train``; evaluate on ``test`` after
    every epoch (and once before training = zero-shot).

    ``callbacks`` takes :class:`repro.obs.Callback` instances (or a
    sequence of them).
    ``resilience`` opts into checkpoint/resume and divergence rollback
    (see :class:`repro.resilience.ResilienceConfig`).
    """
    config = config or FineTuneConfig()
    cb = CallbackList.resolve(callbacks)
    rng = child_rng(seed, "finetune", pretrained.arch, train.name)
    # Fine-tune a *copy* of the pre-trained weights so the cached zoo
    # checkpoint can be reused by other runs.
    from ..models import build_backbone
    with trace("setup", arch=pretrained.arch, dataset=train.name):
        backbone = build_backbone(pretrained.config, rng)
        backbone.special_token_ids = pretrained.tokenizer.vocab.special_ids()
        backbone.load_state_dict(pretrained.backbone.state_dict())
        classifier = SequenceClassifier(backbone, pretrained.config, rng)
        max_length = choose_max_length(train, pretrained.tokenizer,
                                       cap=min(config.max_length_cap,
                                               pretrained.config.max_position))
        encoded_train = encode_dataset(train, pretrained.tokenizer,
                                       max_length)
        encoded_test = encode_dataset(test, pretrained.tokenizer,
                                      max_length)

    class_weights = None
    if config.balance_classes:
        positives = max(int(encoded_train.labels.sum()), 1)
        negatives = max(len(encoded_train) - positives, 1)
        class_weights = np.array([1.0, negatives / positives])

    parameters = classifier.parameters()
    optimizer = Adam(parameters, lr=config.learning_rate)
    n = len(encoded_train)
    # Ceiling division: the final partial batch trains too (a plain
    # floor used to silently drop up to batch_size - 1 examples/epoch).
    steps_per_epoch = max(-(-n // config.batch_size), 1)
    total_steps = steps_per_epoch * config.epochs
    schedule = LinearSchedule(
        optimizer, config.learning_rate, total_steps=total_steps,
        warmup_steps=max(int(total_steps * config.warmup_fraction), 1))

    manager = guard = chaos = None
    checkpoint_every = 0
    if resilience is not None:
        manager = resilience.manager()
        checkpoint_every = max(int(resilience.checkpoint_every), 0)
        if resilience.guard:
            guard = DivergenceGuard(resilience.guard_config)
        chaos = resilience.chaos

    # -- loop state (everything a snapshot captures) -------------------------
    epoch = 1               # 1-based; config.epochs + 1 == run complete
    pos = 0                 # next step index within the epoch
    order: np.ndarray | None = None   # this epoch's shuffle (None = pending)
    losses: list[float] = []          # this epoch's per-step losses
    seconds_accum = 0.0               # this epoch's wall time so far
    history: list[EpochRecord] = []
    rollbacks_since_save = 0

    def _snapshot() -> tuple[dict, dict]:
        arrays: dict[str, np.ndarray] = {}
        pack_state(arrays, "model", classifier.state_dict())
        pack_state(arrays, "optim", optimizer.state_dict())
        pack_state(arrays, "sched", schedule.state_dict())
        if order is not None:
            arrays["loop/order"] = np.asarray(order)
        arrays["loop/losses"] = np.asarray(losses)
        meta = {"kind": "finetune", "epoch": epoch, "pos": pos,
                "has_order": order is not None,
                "global_step": (epoch - 1) * steps_per_epoch + pos,
                "epoch_seconds": seconds_accum,
                "rng": get_rng_state(rng),
                "history": [_record_to_dict(r) for r in history],
                "max_length": max_length,
                "arch": pretrained.arch, "dataset": train.name,
                "seed": seed, "epochs": config.epochs,
                "batch_size": config.batch_size,
                "run": (resilience.run_context or {}) if resilience else {}}
        return arrays, meta

    def _save_snapshot(best_metric: float | None = None) -> None:
        nonlocal rollbacks_since_save
        arrays, meta = _snapshot()
        path = manager.save(meta["global_step"], arrays, meta,
                            best_metric=best_metric)
        rollbacks_since_save = 0
        if cb:
            cb.on_checkpoint({"phase": "finetune",
                              "step": meta["global_step"],
                              "epoch": epoch, "path": str(path)})

    def _restore(arrays: dict, meta: dict) -> None:
        nonlocal epoch, pos, order, losses, seconds_accum, history
        apply_state_dict(classifier, unpack_state(arrays, "model"),
                         source="snapshot model state")
        optimizer.load_state_dict(unpack_state(arrays, "optim"))
        schedule.load_state_dict(unpack_state(arrays, "sched"))
        set_rng_state(rng, meta["rng"])
        epoch = int(meta["epoch"])
        pos = int(meta["pos"])
        order = np.asarray(arrays["loop/order"]) if meta["has_order"] \
            else None
        losses = [float(x) for x in np.asarray(arrays["loop/losses"])]
        seconds_accum = float(meta.get("epoch_seconds", 0.0))
        history = [_record_from_dict(p) for p in meta.get("history", [])]

    # -- resume (or fresh start + zero-shot eval) ----------------------------
    resumed = False
    if manager is not None and resilience.resume and manager.has_snapshot():
        arrays, meta, path = manager.load_latest()
        _check_resume_compatible(meta, {
            "arch": pretrained.arch, "dataset": train.name, "seed": seed,
            "epochs": config.epochs, "batch_size": config.batch_size,
        }, path)
        _restore(arrays, meta)
        resumed = True
        if cb:
            if manager.last_skipped:
                cb.on_recovery({
                    "phase": "finetune", "reason": "corrupt_checkpoint",
                    "action": "fell_back_to_earlier_snapshot",
                    "step": int(meta["global_step"]),
                    "skipped": list(manager.last_skipped)})
            cb.on_recovery({
                "phase": "finetune", "reason": "interrupted_run",
                "action": "resume", "step": int(meta["global_step"]),
                "epoch": epoch, "path": str(path)})

    if cb:
        cb.on_train_begin({
            "phase": "finetune", "arch": pretrained.arch,
            "dataset": train.name, "epochs": config.epochs,
            "batch_size": config.batch_size,
            "steps_per_epoch": steps_per_epoch,
            "train_size": len(encoded_train),
            "test_size": len(encoded_test), "max_length": max_length,
            "learning_rate": config.learning_rate, "resumed": resumed})

    if not resumed:
        with trace("eval", epoch=0):
            zero_shot = evaluate_classifier(classifier, encoded_test,
                                            config.eval_batch_size)
        history.append(EpochRecord(epoch=0, train_loss=float("nan"),
                                   test_metrics=zero_shot, seconds=0.0))
        if cb:
            cb.on_eval(_eval_info(0, zero_shot, zero_shot=True))
        if manager is not None:
            _save_snapshot()

    def _rollback(reason: str, at_step: int) -> None:
        nonlocal rollbacks_since_save
        if manager is None or not manager.has_snapshot():
            raise TrainingDiverged(
                f"training diverged at step {at_step} ({reason}) with no "
                f"checkpoint to roll back to — pass a "
                f"ResilienceConfig(checkpoint_dir=...) to enable recovery",
                attempts=guard.attempts)
        guard.record_rollback(at_step, reason, optimizer.lr)
        rollbacks_since_save += 1
        arrays, meta, path = manager.load_latest()
        _restore(arrays, meta)
        # Compound the backoff across rollbacks that share one snapshot:
        # the restored base_lr predates them all.
        backoff = resilience.guard_config.lr_backoff
        schedule.base_lr *= backoff ** rollbacks_since_save
        optimizer.lr = schedule.current_lr()
        if cb:
            cb.on_recovery({
                "phase": "finetune", "reason": reason,
                "action": "rollback", "step": at_step,
                "restored_step": int(meta["global_step"]),
                "rollbacks": guard.rollbacks, "lr": optimizer.lr})

    # -- training ------------------------------------------------------------
    while epoch <= config.epochs:
        classifier.train()
        if order is None:
            order = rng.permutation(n)
            losses = []
            seconds_accum = 0.0
        rolled_back = False
        segment_t0 = time.perf_counter()
        with trace("epoch", epoch=epoch):
            while pos < steps_per_epoch:
                global_step = (epoch - 1) * steps_per_epoch + pos
                step_t0 = time.perf_counter() if cb else 0.0
                idx = order[pos * config.batch_size:
                            (pos + 1) * config.batch_size]
                batch = encoded_train.batch(idx)
                optimizer.zero_grad()
                logits = classifier(
                    batch.input_ids, segment_ids=batch.segment_ids,
                    pad_mask=batch.pad_masks,
                    cls_index=uniform_cls_index(batch.cls_indices))
                loss = cross_entropy(logits, batch.labels,
                                     class_weights=class_weights)
                loss.backward()
                if chaos is not None:
                    chaos.poison_gradients(global_step, parameters)
                grad_norm = clip_grad_norm(parameters, config.grad_clip)
                loss_value = float(loss.data)
                if guard is not None:
                    reason = guard.check(loss_value, grad_norm)
                    if reason is not None:
                        seconds_accum += time.perf_counter() - segment_t0
                        _rollback(reason, global_step)
                        rolled_back = True
                        break
                if chaos is not None:
                    chaos.maybe_crash(global_step)
                lr = optimizer.lr
                optimizer.step()
                schedule.step()
                losses.append(loss_value)
                pos += 1
                if cb:
                    seconds = time.perf_counter() - step_t0
                    cb.on_step({
                        "phase": "finetune", "step": global_step,
                        "epoch": epoch, "loss": loss_value, "lr": lr,
                        "grad_norm": grad_norm, "seconds": seconds,
                        "examples_per_sec": len(idx) / max(seconds, 1e-9)})
                if manager is not None and checkpoint_every \
                        and (global_step + 1) % checkpoint_every == 0 \
                        and pos < steps_per_epoch:
                    seconds_accum += time.perf_counter() - segment_t0
                    segment_t0 = time.perf_counter()
                    _save_snapshot()
        if rolled_back:
            continue
        seconds_accum += time.perf_counter() - segment_t0
        with trace("eval", epoch=epoch):
            metrics = evaluate_classifier(classifier, encoded_test,
                                          config.eval_batch_size)
        record = EpochRecord(epoch=epoch,
                             train_loss=float(np.mean(losses)),
                             test_metrics=metrics,
                             seconds=seconds_accum)
        history.append(record)
        if cb:
            cb.on_eval(_eval_info(epoch, metrics))
            cb.on_epoch_end({
                "phase": "finetune", "epoch": epoch,
                "train_loss": record.train_loss,
                "seconds": record.seconds, "f1": metrics.f1})
        epoch += 1
        pos = 0
        order = None
        losses = []
        seconds_accum = 0.0
        if manager is not None:
            _save_snapshot(best_metric=metrics.f1)

    result = FineTuneResult(classifier=classifier, history=history,
                            max_length=max_length)
    if cb:
        cb.on_train_end({"phase": "finetune", "epochs": config.epochs,
                         "best_f1": result.best_f1,
                         "final_f1": result.final_f1})
    return result
