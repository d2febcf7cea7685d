"""Pre-training loops for the four architectures.

Each architecture gets the recipe its paper describes, at this
reproduction's scale:

* **BERT** — MLM + NSP on sentence pairs, *static* masking (each example
  is masked once at preprocessing time).
* **RoBERTa** — MLM, *dynamic* masking (re-masked every step), more data
  and more steps, larger batches (the "robustly optimized" recipe).
* **XLNet** — permutation language modeling through the two-stream
  attention path.
* **DistilBERT** — not here: distillation from a BERT teacher lives in
  ``repro.pretraining.distillation``.

Scale-bridging adaptation (documented in DESIGN.md): every architecture
additionally trains a *sentence-pair coherence* objective — classify
whether the two segments describe the same entity, with hard same-domain
negatives.  At paper scale this capability emerges from massive MLM; at
1/100,000 of that compute it must be induced explicitly or no
architecture fine-tunes to useful EM accuracy.  For BERT this is just a
harder-negative NSP; for the others it trains the pooler/CLS pathway
without touching their (NSP-free) MLM/PLM recipes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..models import build_backbone, build_pretraining_head
from ..models.config import TransformerConfig
from ..nn import (Adam, Linear, LinearSchedule, Module, apply_state_dict,
                  clip_grad_norm, cross_entropy)
from ..obs import CallbackList, trace
from ..resilience import (DivergenceGuard, ResilienceConfig,
                          TrainingDiverged, pack_state, unpack_state)
from ..tokenizers import SubwordTokenizer
from ..utils import get_rng_state, set_rng_state
from .corpus import generate_labeled_documents
from .mlm import IGNORE_INDEX, mask_tokens
from .nsp import build_nsp_examples
from .plm import sample_permutation_batch

__all__ = ["PretrainRecipe", "PretrainResult", "pretrain"]


@dataclass
class PretrainRecipe:
    """Knobs of one pre-training run.

    All recipes train on *sentence pairs* in the downstream input format
    (``[CLS] s1 [SEP] s2 [SEP]`` with segment ids): BERT because of NSP,
    RoBERTa/XLNet because they pack consecutive full sentences.  Related
    pairs matter beyond faithfulness — predicting a masked token in one
    segment from its occurrence in the other grows the cross-segment
    "copy" attention heads that entity matching reuses.
    """

    steps: int = 300
    batch_size: int = 16
    seq_len: int = 48
    learning_rate: float = 3e-4
    warmup_fraction: float = 0.1
    num_examples: int = 2000
    num_documents: int = 400
    dynamic_masking: bool = False     # RoBERTa: True
    use_nsp: bool = False             # BERT: True (native NSP head)
    permutation_lm: bool = False      # XLNet: True
    coherence_weight: float = 1.0     # 0 disables the coherence objective
    hard_negatives: bool = True       # same-domain coherence negatives
    grad_clip: float = 1.0


@dataclass
class PretrainResult:
    backbone: Module
    head: Module
    loss_history: list[float] = field(default_factory=list)
    coherence_head: Module | None = None

    @property
    def final_loss(self) -> float:
        if not self.loss_history:
            return float("nan")
        tail = self.loss_history[-10:]
        return float(np.mean(tail))


def _encode_sentences(tokenizer: SubwordTokenizer, sentences: list[str],
                      seq_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ids, segments, pads = [], [], []
    for sentence in sentences:
        enc = tokenizer.encode_single(sentence, max_length=seq_len)
        ids.append(enc.input_ids)
        segments.append(enc.segment_ids)
        pads.append(enc.pad_mask)
    return np.stack(ids), np.stack(segments), np.stack(pads)


def _encode_pairs(tokenizer: SubwordTokenizer, pairs, seq_len: int):
    ids, segments, pads, labels, cls_indices = [], [], [], [], []
    for pair in pairs:
        enc = tokenizer.encode_pair(pair.first, pair.second,
                                    max_length=seq_len)
        ids.append(enc.input_ids)
        segments.append(enc.segment_ids)
        pads.append(enc.pad_mask)
        labels.append(pair.is_next)
        cls_indices.append(enc.cls_index)
    return (np.stack(ids), np.stack(segments), np.stack(pads),
            np.asarray(labels), np.asarray(cls_indices))


def pretrain(config: TransformerConfig, tokenizer: SubwordTokenizer,
             recipe: PretrainRecipe, rng: np.random.Generator,
             callbacks=None,
             resilience: ResilienceConfig | None = None) -> PretrainResult:
    """Run the architecture-appropriate pre-training and return the model.

    Progress is reported through the :mod:`repro.obs` callback protocol
    (``train_begin`` → per-step ``step`` → ``train_end``);
    ``LoggingCallback`` prints a loss line every 100 steps.
    ``resilience`` opts into full-state checkpointing (resume is
    bit-identical), divergence rollback, and chaos injection — see
    :class:`repro.resilience.ResilienceConfig`.
    """
    cb = CallbackList.resolve(callbacks)
    backbone = build_backbone(config, rng)
    backbone.special_token_ids = tokenizer.vocab.special_ids()
    head = build_pretraining_head(config, rng)
    parameters = backbone.parameters() + head.parameters()

    use_coherence = recipe.coherence_weight > 0.0
    coherence_head = None
    if use_coherence and not recipe.use_nsp:
        # BERT reuses its native NSP head; the others get a throwaway
        # coherence readout that still trains the pooler/CLS pathway.
        coherence_head = Linear(config.d_model, 2, rng,
                                std=1.0 / np.sqrt(config.d_model))
        parameters = parameters + coherence_head.parameters()

    optimizer = Adam(parameters, lr=recipe.learning_rate)
    schedule = LinearSchedule(
        optimizer, recipe.learning_rate, total_steps=recipe.steps,
        warmup_steps=max(int(recipe.steps * recipe.warmup_fraction), 1))

    labeled = generate_labeled_documents(rng, recipe.num_documents)
    documents = [doc for _, doc in labeled]
    domains = [domain for domain, _ in labeled] if recipe.hard_negatives \
        else None
    coherent_fraction = 0.5 if use_coherence or recipe.use_nsp else 1.0
    examples = build_nsp_examples(documents, rng,
                                  num_examples=recipe.num_examples,
                                  coherent_fraction=coherent_fraction,
                                  domains=domains)
    all_ids, all_segments, all_pads, all_next, all_cls = _encode_pairs(
        tokenizer, examples, recipe.seq_len)

    # Static masking (BERT): decided once, reused whenever a sample recurs.
    static_masked = None
    if not recipe.dynamic_masking and not recipe.permutation_lm:
        static_masked = mask_tokens(all_ids, tokenizer.vocab, rng)

    if cb:
        cb.on_train_begin({
            "phase": "pretrain", "steps": recipe.steps,
            "batch_size": recipe.batch_size, "seq_len": recipe.seq_len,
            "num_examples": recipe.num_examples,
            "learning_rate": recipe.learning_rate,
            "permutation_lm": recipe.permutation_lm,
            "dynamic_masking": recipe.dynamic_masking})

    manager = guard = chaos = None
    checkpoint_every = 0
    if resilience is not None:
        manager = resilience.manager()
        checkpoint_every = max(int(resilience.checkpoint_every), 0)
        if resilience.guard:
            guard = DivergenceGuard(resilience.guard_config)
        chaos = resilience.chaos

    # CLS placement is batch-uniform by construction (one tokenizer, one
    # seq_len); validate the whole encoded set once instead of trusting
    # index 0 of every batch.
    from ..matching.serializer import uniform_cls_index
    cls_index = uniform_cls_index(all_cls)

    history: list[float] = []
    n = all_ids.shape[0]
    step = 0
    rollbacks_since_save = 0

    def _snapshot() -> tuple[dict, dict]:
        arrays: dict[str, np.ndarray] = {}
        pack_state(arrays, "backbone", backbone.state_dict())
        pack_state(arrays, "head", head.state_dict())
        if coherence_head is not None:
            pack_state(arrays, "coherence", coherence_head.state_dict())
        pack_state(arrays, "optim", optimizer.state_dict())
        pack_state(arrays, "sched", schedule.state_dict())
        arrays["loop/history"] = np.asarray(history)
        meta = {"kind": "pretrain", "step": step,
                "rng": get_rng_state(rng),
                "steps": recipe.steps, "batch_size": recipe.batch_size,
                "seq_len": recipe.seq_len,
                "run": (resilience.run_context or {}) if resilience else {}}
        return arrays, meta

    def _save_snapshot() -> None:
        nonlocal rollbacks_since_save
        arrays, meta = _snapshot()
        path = manager.save(step, arrays, meta)
        rollbacks_since_save = 0
        if cb:
            cb.on_checkpoint({"phase": "pretrain", "step": step,
                              "path": str(path)})

    def _restore(arrays: dict, meta: dict) -> None:
        nonlocal step, history
        apply_state_dict(backbone, unpack_state(arrays, "backbone"),
                         source="snapshot backbone state")
        apply_state_dict(head, unpack_state(arrays, "head"),
                         source="snapshot head state")
        if coherence_head is not None:
            apply_state_dict(coherence_head,
                             unpack_state(arrays, "coherence"),
                             source="snapshot coherence state")
        optimizer.load_state_dict(unpack_state(arrays, "optim"))
        schedule.load_state_dict(unpack_state(arrays, "sched"))
        set_rng_state(rng, meta["rng"])
        step = int(meta["step"])
        history[:] = [float(x) for x in np.asarray(arrays["loop/history"])]

    resumed = False
    if manager is not None and resilience.resume and manager.has_snapshot():
        arrays, meta, path = manager.load_latest()
        _restore(arrays, meta)
        resumed = True
        if cb:
            cb.on_recovery({"phase": "pretrain",
                            "reason": "interrupted_run",
                            "action": "resume", "step": step,
                            "path": str(path)})
    if manager is not None and not resumed:
        _save_snapshot()

    def _rollback(reason: str) -> None:
        nonlocal rollbacks_since_save
        if manager is None or not manager.has_snapshot():
            raise TrainingDiverged(
                f"pre-training diverged at step {step} ({reason}) with no "
                f"checkpoint to roll back to", attempts=guard.attempts)
        guard.record_rollback(step, reason, optimizer.lr)
        rollbacks_since_save += 1
        arrays, meta, _ = manager.load_latest()
        _restore(arrays, meta)
        backoff = resilience.guard_config.lr_backoff
        schedule.base_lr *= backoff ** rollbacks_since_save
        optimizer.lr = schedule.current_lr()
        if cb:
            cb.on_recovery({"phase": "pretrain", "reason": reason,
                            "action": "rollback", "step": step,
                            "rollbacks": guard.rollbacks,
                            "lr": optimizer.lr})

    with trace("pretrain", steps=recipe.steps):
        while step < recipe.steps:
            step_t0 = time.perf_counter() if cb else 0.0
            batch_idx = rng.integers(0, n, size=recipe.batch_size)
            ids = all_ids[batch_idx]
            segments = all_segments[batch_idx]
            pads = all_pads[batch_idx]

            optimizer.zero_grad()
            if recipe.permutation_lm:
                loss = _xlnet_step(backbone, head, coherence_head,
                                   tokenizer, recipe, rng, step, ids,
                                   segments, pads, all_next[batch_idx],
                                   cls_index)
            else:
                if recipe.dynamic_masking:
                    masked = mask_tokens(ids, tokenizer.vocab, rng)
                    masked_ids, targets = masked.input_ids, masked.targets
                else:
                    masked_ids = static_masked.input_ids[batch_idx]
                    targets = static_masked.targets[batch_idx]
                hidden = backbone(masked_ids, segment_ids=segments,
                                  pad_mask=pads)
                logits = head.mlm_logits(hidden)
                loss = cross_entropy(logits, targets,
                                     ignore_index=IGNORE_INDEX)
                if use_coherence:
                    pooled = backbone.pooled_output(hidden,
                                                    cls_index=cls_index)
                    if recipe.use_nsp:
                        coherence_logits = head.nsp_logits(pooled)
                    else:
                        coherence_logits = coherence_head(pooled)
                    loss = loss + recipe.coherence_weight * cross_entropy(
                        coherence_logits, all_next[batch_idx])

            loss.backward()
            if chaos is not None:
                chaos.poison_gradients(step, parameters)
            grad_norm = clip_grad_norm(parameters, recipe.grad_clip)
            if guard is not None:
                reason = guard.check(float(loss.data), grad_norm)
                if reason is not None:
                    _rollback(reason)
                    continue
            if chaos is not None:
                chaos.maybe_crash(step)
            lr = optimizer.lr
            optimizer.step()
            schedule.step()
            history.append(float(loss.data))
            step += 1
            if cb:
                seconds = time.perf_counter() - step_t0
                cb.on_step({
                    "phase": "pretrain", "step": step - 1,
                    "loss": history[-1], "lr": lr,
                    "grad_norm": grad_norm, "seconds": seconds,
                    "examples_per_sec":
                        recipe.batch_size / max(seconds, 1e-9)})
            if manager is not None and checkpoint_every \
                    and step % checkpoint_every == 0:
                _save_snapshot()

    if manager is not None:
        _save_snapshot()

    backbone.eval()
    head.eval()
    result = PretrainResult(backbone=backbone, head=head,
                            loss_history=history,
                            coherence_head=coherence_head)
    if cb:
        cb.on_train_end({"phase": "pretrain", "steps": recipe.steps,
                         "final_loss": result.final_loss})
    return result


def _xlnet_step(backbone, head, coherence_head, tokenizer, recipe, rng,
                step, ids, segments, pads, next_labels, cls_index):
    """Alternate permutation-LM steps with coherence steps.

    Two-stream PLM and the bidirectional coherence pass need different
    attention setups, so XLNet interleaves them (the loss history then
    reflects both objectives).
    """
    use_coherence = recipe.coherence_weight > 0.0 and coherence_head
    if use_coherence and step % 2 == 1:
        hidden = backbone(ids, segment_ids=segments, pad_mask=pads)
        pooled = backbone.pooled_output(hidden, cls_index=cls_index)
        return recipe.coherence_weight * cross_entropy(
            coherence_head(pooled), next_labels)
    batch = sample_permutation_batch(ids, tokenizer.vocab, rng)
    g = backbone.forward_permutation(batch.input_ids, batch.order,
                                     segment_ids=segments)
    logits = head.mlm_logits(g)
    return cross_entropy(logits, batch.targets, ignore_index=IGNORE_INDEX)
