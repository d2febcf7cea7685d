"""Shared pieces of the benchmark: spans, statistics, inputs and set-up.

Every layer is measured from outside the program: the workloads call
public functions of ``repro`` and, in a traced run, hand timing proxies
to public constructors (``CascadeEngine``, ``MatchService``,
``dedupe_records``).  Nothing here edits or monkeypatches module code;
the only instance-level wrapping is of a tokenizer's ``encode_pair`` and
a classifier's ``predict_proba`` on objects the benchmark itself built.
"""

from __future__ import annotations

import gc
import itertools
import json
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.data import load_benchmark, split_dataset
from repro.dedupe import UnionFind, adjusted_rand_index
from repro.matching import (CascadeEngine, EntityMatcher, FineTuneConfig,
                            build_cascade, evaluate_predictions)
from repro.nn.fused import count_kernels
from repro.obs import default_registry
from repro.pretraining import ZooSettings
from repro.utils import child_rng

#: Each run sets up this many times and reports the median; the last
#: set-up serves the timed section.
SETUPS = 3

#: Pretraining recipe small enough to run three times per benchmark run
#: (the zoo defaults take minutes).  Every run pretrains into a fresh
#: directory: the zoo cache key hashes these settings, not the code, so a
#: shared cache would hand a changed program the parent's checkpoints.
ZOO_SETTINGS = dict(base_steps=25, base_examples=150,
                    tokenizer_sentences=150, vocab_size=220, d_model=32,
                    num_layers=2, num_heads=2, max_position=64, seq_len=32)

#: Seed of the training data and models of the model workloads.  The
#: models are part of the program's set-up, not of the inputs, so they
#: stay the same for every ``--seed``.
MODEL_SEED = 4

#: Training data scale of the cascade models (share of the paper's
#: DBLP-Scholar row count), and the F1 their decisions must beat.
CASCADE_TRAIN_SCALE = 0.03
CASCADE_MIN_F1 = 0.55

#: Ambiguity band of the timed cascade.  ``build_cascade`` still
#: calibrates a band in every set-up, but at this scale DistilBERT is
#: often as good as RoBERTa on the 172 validation pairs, and the
#: calibrated band then collapses to nothing: with the recipe below, six
#: of the model seeds 0-7 escalate no validation pair, seed 0 escalates
#: 6 % and seed 4 15 %.
#: A small numeric change to training could flip that and move the
#: cascade's cost by the whole secondary.  A fixed band escalates a share
#: that moves smoothly with the primary's probabilities (about 12 %).
CASCADE_BAND = (0.15, 0.85)

#: Fused-kernel kinds the float inference path engages.
KERNEL_KINDS = ("linear", "attention_core", "layer_norm", "softmax",
                "feed_forward", "gelu")


def zoo_settings() -> ZooSettings:
    return ZooSettings(**ZOO_SETTINGS)


# -- statistics ----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def setup_time(import_seconds, setup_seconds) -> float:
    """``setup_s``: the median over set-ups of import plus set-up time."""
    return median([a + b for a, b in zip(import_seconds, setup_seconds)])


def settle() -> None:
    """Collect set-up garbage and exempt the surviving heap from later
    collections, so full collections in the timed section scan only what
    it allocates, not the benchmark's inputs and set-up leftovers."""
    gc.collect()
    gc.freeze()


def cpu_seconds() -> float:
    """CPU time of the whole process (all threads)."""
    return time.process_time()


# -- tracing -------------------------------------------------------------------

class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is ``(id, name, start, end, parent)``; the parent is the span
    open on the same thread when it began (0 for a root).  Spans stay in
    memory and are written once, when the run ends.  Recording is per
    thread: only code inside :meth:`active` on a traced run records, so
    untraced passes and an untraced service's worker share the same
    instrumented objects without being timed.
    """

    def __init__(self, run_id: str, traced: bool):
        self.run_id = run_id
        self.traced = traced
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def recording(self) -> bool:
        return getattr(self._local, "on", False)

    @contextmanager
    def active(self, on: bool = True):
        """Record spans on this thread inside the block (if traced)."""
        previous = self.recording()
        self._local.on = on and self.traced
        try:
            yield
        finally:
            self._local.on = previous

    @contextmanager
    def span(self, name: str):
        if not self.recording():
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere as a child of the open span."""
        if self.recording():
            stack = self._stack()
            self.spans.append((next(self._ids), name, start, end,
                               stack[-1] if stack else 0))

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)``.

        Self time is a span's duration minus the part its child spans
        cover.
        """
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - covered[span_id]
        return {name: tuple(entry) for name, entry in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans}))


class LayerStats:
    """Counters the traced proxies fill in; read by the workloads."""

    def __init__(self):
        self.encode_calls = 0
        self.encode_seconds = 0.0
        self.real_tokens = 0
        self.padded_tokens = 0
        self.forward_seconds = 0.0
        self.kernels: dict[str, int] = defaultdict(int)
        self.engine_pairs: dict[str, int] = defaultdict(int)
        self.engine_seconds: dict[str, float] = defaultdict(float)


def instrument_model(tokenizer, classifier, tracer: Tracer,
                     stats: LayerStats) -> None:
    """Time ``encode_pair`` and ``predict_proba`` of one fitted model.

    Both are wrapped on the instances the benchmark built (its tokenizer
    and classifier), so the engine's own code runs unchanged.  On a
    thread that is not recording the wrappers call straight through.
    """
    encode_pair = tokenizer.encode_pair

    def timed_encode(*args, **kwargs):
        if not tracer.recording():
            return encode_pair(*args, **kwargs)
        start = time.perf_counter()
        with tracer.span("tokenizers.encode_pair"):
            encoding = encode_pair(*args, **kwargs)
        stats.encode_calls += 1
        stats.encode_seconds += time.perf_counter() - start
        return encoding

    tokenizer.encode_pair = timed_encode
    predict_proba = classifier.predict_proba

    def timed_predict(input_ids, *args, pad_mask=None, **kwargs):
        if not tracer.recording():
            return predict_proba(input_ids, *args, pad_mask=pad_mask,
                                 **kwargs)
        with tracer.span("models.predict_proba"):
            probs = predict_proba(input_ids, *args, pad_mask=pad_mask,
                                  **kwargs)
        if pad_mask is not None:
            mask = np.asarray(pad_mask, dtype=bool)
            stats.real_tokens += int((~mask).sum())
            stats.padded_tokens += int(mask.size)
        return probs

    classifier.predict_proba = timed_predict


class EngineProxy:
    """Timing proxy with the ``score_pairs`` protocol of a match engine.

    Records a span per call, the fused-kernel mix of the call (on the
    calling thread) and the engine's own ``perf.match.forward_seconds``
    gauge, which the engine sets once per call.
    """

    def __init__(self, engine, name: str, tracer: Tracer,
                 stats: LayerStats):
        self._engine = engine
        self._name = name
        self._tracer = tracer
        self._stats = stats
        self.seconds = 0.0
        self._forward = default_registry().gauge(
            "perf.match.forward_seconds")

    def score_pairs(self, pairs, **kwargs):
        pairs = list(pairs)
        start = time.perf_counter()
        with self._tracer.span(self._name), count_kernels() as kernels:
            outcomes = self._engine.score_pairs(pairs, **kwargs)
        seconds = time.perf_counter() - start
        self.seconds += seconds
        stats = self._stats
        stats.engine_seconds[self._name] += seconds
        stats.engine_pairs[self._name] += len(pairs)
        stats.forward_seconds += self._forward.value
        for kind, calls in kernels.items():
            stats.kernels[kind] += calls
        return outcomes


def traced_cascade(cascade, models, tracer: Tracer,
                   stats: LayerStats) -> CascadeEngine:
    """The same cascade with every layer under it instrumented.

    ``models`` are the ``(tokenizer, classifier, max_length)`` of
    :func:`setup_cascade`; the returned engine hands timing proxies of
    the cascade's two engines to the public ``CascadeEngine``.
    """
    for tokenizer, classifier, _ in models:
        instrument_model(tokenizer, classifier, tracer, stats)
    return CascadeEngine(
        EngineProxy(cascade.primary, "matching.engine.primary", tracer,
                    stats),
        EngineProxy(cascade.secondary, "matching.engine.secondary", tracer,
                    stats),
        cascade.band)


def cascade_layer_metrics(stats: LayerStats, pairs: int) -> dict:
    """Per-layer metrics of tokenizer, model, fused kernels and cascade.

    ``pairs`` is the number the cascade scored while traced.
    """
    pairs = max(pairs, 1)
    metrics = {
        "tokenizers.encode_us_per_pair":
            1e6 * stats.encode_seconds / max(stats.encode_calls, 1),
        "models.forward_us_per_pair": 1e6 * stats.forward_seconds / pairs,
        "nn.fused.kernel_calls_per_pair":
            sum(stats.kernels.values()) / pairs,
        "matching.pad_efficiency":
            stats.real_tokens / max(stats.padded_tokens, 1),
        "matching.cascade.escalation_rate":
            stats.engine_pairs["matching.engine.secondary"]
            / max(stats.engine_pairs["matching.engine.primary"], 1),
        "matching.cascade.primary_us_per_pair":
            1e6 * stats.engine_seconds["matching.engine.primary"] / pairs,
        "matching.cascade.secondary_us_per_pair":
            1e6 * stats.engine_seconds["matching.engine.secondary"] / pairs,
    }
    for kind in KERNEL_KINDS:
        metrics[f"nn.fused.{kind}_calls"] = stats.kernels.get(kind, 0)
    return metrics


class CacheCounter:
    """Token-cache hits and misses accumulated since construction."""

    def __init__(self):
        registry = default_registry()
        self._hits = registry.counter("perf.token_cache.hits")
        self._misses = registry.counter("perf.token_cache.misses")
        self._start = (self._hits.value, self._misses.value)

    def hit_rate(self) -> float:
        hits = self._hits.value - self._start[0]
        misses = self._misses.value - self._start[1]
        return hits / (hits + misses) if hits + misses else 0.0


# -- inputs --------------------------------------------------------------------

def training_splits(seed: int, scale: float):
    """Seeded dirty DBLP-Scholar train/validation/test split."""
    data = load_benchmark("dblp-scholar", seed=seed, scale=scale)
    return split_dataset(data, child_rng(seed, "perfbench", "split"))


def fresh_pairs(seed: int, count: int, exclude_texts: set[str]) -> list:
    """``count`` labelled dirty DBLP-Scholar pairs, no record repeated.

    Pairs come from datasets generated with seeds derived from ``seed``;
    a pair is kept only if neither record's text was seen before (in
    this stream or in ``exclude_texts``, the training records).
    Returns ``[(record_a, record_b, label), ...]``.
    """
    seen = set(exclude_texts)
    out: list = []
    for part in itertools.count():
        data = load_benchmark("dblp-scholar",
                              seed=seed * 1000 + 17 + part, scale=0.25)
        for pair in data.pairs:
            text_a = pair.record_a.text_blob()
            text_b = pair.record_b.text_blob()
            if text_a in seen or text_b in seen or text_a == text_b:
                continue
            seen.add(text_a)
            seen.add(text_b)
            out.append((pair.record_a, pair.record_b, pair.label))
            if len(out) == count:
                return out
    raise AssertionError("unreachable")


def dataset_texts(*datasets) -> set[str]:
    return {record.text_blob() for dataset in datasets
            for pair in dataset.pairs
            for record in (pair.record_a, pair.record_b)}


def repeat_share(keys) -> float:
    """Share of occurrences whose key occurred earlier in the run."""
    keys = list(keys)
    return 1 - len(set(keys)) / len(keys) if keys else 0.0


def token_lengths(tokenizer, pairs, max_length: int,
                  limit: int = 1000) -> tuple[float, float]:
    """p50 and p90 of real tokens per encoded pair (first ``limit``)."""
    lengths = []
    for entity_a, entity_b in pairs[:limit]:
        encoding = tokenizer.encode_pair(entity_a.text_blob(),
                                         entity_b.text_blob(),
                                         max_length=max_length)
        lengths.append(int((~np.asarray(encoding.pad_mask,
                                        dtype=bool)).sum()))
    return percentile(lengths, 50), percentile(lengths, 90)


# -- quality -------------------------------------------------------------------

def pair_f1(labels, decisions) -> float:
    return evaluate_predictions(np.asarray(labels, dtype=int),
                                np.asarray(decisions, dtype=int)).f1


def pair_ari(pairs, labels, decisions) -> float:
    """ARI of the entity clusters that match decisions induce.

    The records of ``pairs`` are clustered twice by union-find: once over
    the pairs decided to match and once over the gold matches.
    """
    index: dict[str, int] = {}
    edges = []
    for entity_a, entity_b in pairs:
        ids = tuple(index.setdefault(entity.text_blob(), len(index))
                    for entity in (entity_a, entity_b))
        edges.append(ids)
    predicted, gold = UnionFind(len(index)), UnionFind(len(index))
    for (a, b), label, decision in zip(edges, labels, decisions):
        if decision:
            predicted.union(a, b)
        if label:
            gold.union(a, b)
    return adjusted_rand_index(predicted.labels(), gold.labels())


def cluster_f1(predicted, gold) -> float:
    """Pairwise F1 of a clustering: record pairs placed together."""
    def together(counts) -> int:
        return sum(n * (n - 1) // 2 for n in counts.values())

    both = defaultdict(int)
    for pair in zip(predicted, gold):
        both[pair] += 1
    tp = together(both)
    predicted_pairs = together(_counts(predicted))
    gold_pairs = together(_counts(gold))
    if not tp:
        return 0.0
    precision, recall = tp / predicted_pairs, tp / gold_pairs
    return 2 * precision * recall / (precision + recall)


def _counts(labels) -> dict:
    counts = defaultdict(int)
    for label in labels:
        counts[label] += 1
    return counts


# -- set-up --------------------------------------------------------------------

class Scratch:
    """A per-run directory inside the checkout, removed when closed."""

    def __init__(self, root: Path):
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        self._fresh = itertools.count()

    def fresh(self, name: str) -> Path:
        path = self.path / f"{name}-{next(self._fresh)}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def fit_matcher(arch: str, splits, seed: int, zoo_dir: Path,
                tracer: Tracer, finetune: FineTuneConfig):
    """Pretrain into ``zoo_dir`` and fine-tune; ``(matcher, result)``."""
    matcher = EntityMatcher(arch, seed=seed, zoo_settings=zoo_settings(),
                            zoo_dir=zoo_dir, finetune_config=finetune)
    with tracer.span("pretraining.pretrain"):
        matcher.pretrained
    with tracer.span("matching.fit"):
        result = matcher.fit(splits.train, splits.validation)
    return matcher, result


#: Fine-tuning recipe of the two cascade models.
CASCADE_FINETUNE = dict(epochs=3, batch_size=8, max_length_cap=64)


def setup_cascade(splits, seed: int, zoo_dir: Path, tracer: Tracer):
    """Pretrain and fine-tune DistilBERT and RoBERTa, calibrate a cascade.

    Returns ``(cascade, models)``: the cascade of the two engines over
    :data:`CASCADE_BAND`, and the ``(tokenizer, classifier, max_length)``
    of the primary, then of the secondary.
    """
    config = FineTuneConfig(**CASCADE_FINETUNE)
    fitted = [fit_matcher(arch, splits, seed, zoo_dir, tracer, config)
              for arch in ("distilbert", "roberta")]
    with tracer.span("matching.calibrate"):
        calibrated = build_cascade(fitted[0][0], fitted[1][0],
                                   splits.validation)
    cascade = CascadeEngine(calibrated.primary, calibrated.secondary,
                            CASCADE_BAND)
    models = [(matcher.pretrained.tokenizer, result.classifier,
               result.max_length) for matcher, result in fitted]
    return cascade, models


def setup_span_metrics(tracer: Tracer, setups: int) -> dict:
    """Mean seconds per set-up of the set-up spans."""
    totals = tracer.totals()

    def per_setup(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1] / setups

    return {"pretraining.pretrain_s": per_setup("pretraining.pretrain"),
            "matching.fit_s": per_setup("matching.fit"),
            "matching.calibrate_s": per_setup("matching.calibrate")}
