"""Model zoo: pre-train once, cache, reuse.

Plays the role of the HuggingFace hub in the paper's setup (Table 4): each
architecture's "pre-trained checkpoint" is produced in-repo by running its
pre-training recipe on the synthetic corpus, then cached on disk so
fine-tuning experiments load it instantly.

Recipe differences follow the papers:

=============  ==========================================================
architecture   recipe
=============  ==========================================================
bert           MLM + NSP, static masking
roberta        MLM only, dynamic masking, 3x data, 2x steps, larger batch
xlnet          permutation LM through two-stream attention (slower/step)
distilbert     triple-loss distillation from the cached BERT teacher
=============  ==========================================================
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..models import TransformerConfig, default_config
from ..nn import (CheckpointError, Module, apply_state_dict,
                  load_checkpoint, save_checkpoint)
from ..obs import LoggingCallback
from ..tokenizers import (ByteLevelBPETokenizer, SubwordTokenizer,
                          UnigramTokenizer, WordPieceTokenizer,
                          train_byte_level_bpe, train_unigram,
                          train_wordpiece)
from ..utils import atomic_write_text, child_rng
from .corpus import generate_corpus
from .distillation import DistillationRecipe, distill
from .trainer import PretrainRecipe, PretrainResult, pretrain

__all__ = ["PretrainedModel", "ZooSettings", "get_pretrained",
           "default_zoo_dir", "clear_zoo"]

_TOKENIZER_CLASSES = {
    "wordpiece": WordPieceTokenizer,
    "bpe": ByteLevelBPETokenizer,
    "unigram": UnigramTokenizer,
}


@functools.cache
def _code_digest() -> str:
    """sha256 of the code that decides a checkpoint's vocabulary and
    weights, so entries trained by older code are never served."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in ("tokenizers", "pretraining", "models", "nn"):
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class ZooSettings:
    """Scale knobs for zoo checkpoints (shared across architectures)."""

    d_model: int = 64
    num_layers: int = 4
    num_heads: int = 4
    max_position: int = 128
    vocab_size: int = 600
    seq_len: int = 48
    base_steps: int = 2500
    base_examples: int = 5000
    batch_size: int = 16
    learning_rate: float = 3e-4
    tokenizer_sentences: int = 1200

    def cache_key(self, arch: str, seed: int) -> str:
        payload = json.dumps({"arch": arch, "seed": seed,
                              "code": _code_digest(), **self.__dict__},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class PretrainedModel:
    """A ready-to-fine-tune checkpoint."""

    arch: str
    config: TransformerConfig
    backbone: Module
    tokenizer: SubwordTokenizer
    from_cache: bool


def default_zoo_dir() -> Path:
    """Checkpoint cache location (REPRO_ZOO_DIR or ~/.cache/repro/zoo)."""
    env = os.environ.get("REPRO_ZOO_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "zoo"


def clear_zoo(zoo_dir: str | Path | None = None) -> int:
    """Delete cached checkpoints; returns the number removed."""
    directory = Path(zoo_dir) if zoo_dir else default_zoo_dir()
    removed = 0
    if directory.exists():
        for path in directory.glob("*.npz"):
            path.unlink()
            removed += 1
        for path in directory.glob("*.tokenizer.json"):
            path.unlink()
    return removed


def _train_tokenizer(arch: str, settings: ZooSettings,
                     seed: int) -> SubwordTokenizer:
    rng = child_rng(seed, "tokenizer-corpus")
    corpus = generate_corpus(rng, settings.tokenizer_sentences)
    if arch in ("bert", "distilbert"):
        # The WordPiece likelihood score over-merges rare symbols on a
        # small corpus; a frequency floor keeps merges on common words.
        return train_wordpiece(
            corpus, vocab_size=settings.vocab_size,
            min_frequency=max(2, settings.tokenizer_sentences // 60))
    if arch == "roberta":
        return train_byte_level_bpe(corpus, vocab_size=settings.vocab_size)
    if arch == "xlnet":
        return train_unigram(corpus, vocab_size=settings.vocab_size)
    raise ValueError(f"unknown architecture: {arch!r}")


def _recipe_for(arch: str, settings: ZooSettings) -> PretrainRecipe:
    recipe = PretrainRecipe(
        steps=settings.base_steps,
        batch_size=settings.batch_size,
        seq_len=settings.seq_len,
        learning_rate=settings.learning_rate,
        num_examples=settings.base_examples,
        num_documents=max(settings.base_examples // 5, 50),
    )
    if arch == "bert":
        recipe.use_nsp = True
    elif arch == "roberta":
        recipe.dynamic_masking = True
        recipe.steps = int(settings.base_steps * 1.2)   # longer training
        recipe.num_examples = settings.base_examples * 3    # more data
        recipe.num_documents = max(recipe.num_examples // 5, 50)
        recipe.batch_size = settings.batch_size * 2     # larger batches
    elif arch == "xlnet":
        recipe.permutation_lm = True
    return recipe


def _config_for(arch: str, settings: ZooSettings,
                vocab_size: int) -> TransformerConfig:
    return default_config(
        arch, vocab_size=vocab_size, d_model=settings.d_model,
        num_layers=settings.num_layers, num_heads=settings.num_heads,
        max_position=settings.max_position)


def get_pretrained(arch: str, seed: int = 0,
                   settings: ZooSettings | None = None,
                   zoo_dir: str | Path | None = None,
                   force_retrain: bool = False,
                   log=None) -> PretrainedModel:
    """Load (or pre-train and cache) the checkpoint for ``arch``.

    DistilBERT transparently pre-trains its BERT teacher first if that is
    not cached yet.
    """
    settings = settings or ZooSettings()
    directory = Path(zoo_dir) if zoo_dir else default_zoo_dir()
    directory.mkdir(parents=True, exist_ok=True)
    key = settings.cache_key(arch, seed)
    weights_path = directory / f"{arch}-{key}.npz"
    tokenizer_path = directory / f"{arch}-{key}.tokenizer.json"

    tokenizer = _load_or_train_tokenizer(arch, settings, seed,
                                         tokenizer_path, force_retrain)
    config = _config_for(arch, settings, vocab_size=len(tokenizer.vocab))

    if weights_path.exists() and not force_retrain:
        from ..models import build_backbone
        backbone = build_backbone(config, child_rng(seed, "init", arch))
        backbone.special_token_ids = tokenizer.vocab.special_ids()
        try:
            state, _ = load_checkpoint(weights_path)
            apply_state_dict(backbone, state, source=str(weights_path))
        except CheckpointError:
            # A corrupt/truncated/incompatible cache entry is not fatal —
            # discard it and regenerate below, exactly like a cache miss.
            weights_path.unlink(missing_ok=True)
        else:
            backbone.eval()
            return PretrainedModel(arch, config, backbone, tokenizer,
                                   from_cache=True)

    result = _run_pretraining(arch, config, tokenizer, settings, seed,
                              directory, log)
    save_checkpoint(weights_path, result.backbone.state_dict(),
                    metadata={"arch": arch, "config": config.to_dict(),
                              "final_loss": result.final_loss})
    return PretrainedModel(arch, config, result.backbone, tokenizer,
                           from_cache=False)


def _load_or_train_tokenizer(arch: str, settings: ZooSettings, seed: int,
                             path: Path,
                             force_retrain: bool) -> SubwordTokenizer:
    if path.exists() and not force_retrain:
        try:
            payload = json.loads(path.read_text())
            return _TOKENIZER_CLASSES[payload["kind"]].from_payload(payload)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Truncated or garbled tokenizer cache: retrain it.
            path.unlink(missing_ok=True)
    tokenizer = _train_tokenizer(arch, settings, seed)
    atomic_write_text(path, json.dumps(tokenizer.to_payload()))
    return tokenizer


def _logging(log) -> LoggingCallback | None:
    """Pre-training progress lines for ``get_pretrained``'s ``log``."""
    return LoggingCallback(log) if log is not None else None


def _run_pretraining(arch: str, config: TransformerConfig,
                     tokenizer: SubwordTokenizer, settings: ZooSettings,
                     seed: int, directory: Path, log) -> PretrainResult:
    rng = child_rng(seed, "pretrain", arch)
    if arch == "distilbert":
        teacher = get_pretrained("bert", seed=seed, settings=settings,
                                 zoo_dir=directory, log=log)
        # The distillation loss needs the teacher's MLM head; retrain the
        # head quickly is wasteful, so the teacher run caches it too.
        teacher_head = _teacher_head(teacher, settings, seed, directory, log)
        recipe = DistillationRecipe(
            steps=settings.base_steps,
            batch_size=settings.batch_size,
            seq_len=settings.seq_len,
            learning_rate=settings.learning_rate,
            num_sentences=settings.base_examples,
        )
        return distill(config, teacher.backbone, teacher_head, tokenizer,
                       recipe, rng, log=log)
    recipe = _recipe_for(arch, settings)
    result = pretrain(config, tokenizer, recipe, rng,
                      callbacks=_logging(log))
    if arch == "bert":
        head_path = directory / (
            f"bert-head-{settings.cache_key('bert', seed)}.npz")
        save_checkpoint(head_path, result.head.state_dict(),
                        metadata={"arch": "bert-mlm-head"})
    return result


def _teacher_head(teacher: PretrainedModel, settings: ZooSettings,
                  seed: int, directory: Path, log) -> Module:
    from ..models import build_pretraining_head
    head_path = directory / (
        f"bert-head-{settings.cache_key('bert', seed)}.npz")
    head = build_pretraining_head(teacher.config,
                                  child_rng(seed, "init", "bert-head"))
    if head_path.exists():
        try:
            state, _ = load_checkpoint(head_path)
            apply_state_dict(head, state, source=str(head_path))
            head.eval()
            return head
        except CheckpointError:
            head_path.unlink(missing_ok=True)
    # Teacher was cached before head caching existed (or the cached head
    # is corrupt): re-run pretrain to regenerate it.
    recipe = _recipe_for("bert", settings)
    result = pretrain(teacher.config, teacher.tokenizer, recipe,
                      child_rng(seed, "pretrain", "bert"),
                      callbacks=_logging(log))
    head = result.head
    save_checkpoint(head_path, head.state_dict(),
                    metadata={"arch": "bert-mlm-head"})
    head.eval()
    return head
