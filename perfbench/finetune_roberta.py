"""``finetune-roberta``: fine-tuning RoBERTa on dirty DBLP-Scholar.

Each pass is one ``EntityMatcher("roberta").fit`` from the same
pretrained checkpoint on the seeded training split, evaluated on its
test split.  It is the only workload whose timed section runs the tape
autodiff layer (``nn.tensor``, ``nn.optim``, ``matching.finetune``), and
it uses the model layers for training where ``serve-zipf`` uses them
for fused inference, so a change that speeds one and slows the other
shows on one of the two.
"""

from __future__ import annotations

import time

from repro.matching import EntityMatcher, FineTuneConfig
from repro.obs import Callback, profile

import harness

#: Dataset scale (share of the paper's DBLP-Scholar row count).
DATA_SCALE = 0.1
#: Fine-tuning recipe; the other knobs keep ``FineTuneConfig`` defaults.
EPOCHS = 3
#: Training examples of the warm-up fit in every set-up and of the
#: profiled epoch of a traced run.
SMALL_EXAMPLES = 256
#: Test F1 must beat this.
MIN_F1 = 0.6


class StepTimes(Callback):
    """Per training step: wall seconds (as ``fine_tune`` reports them,
    and as a span), examples, CPU seconds and loss."""

    def __init__(self, tracer):
        self._tracer = tracer
        self.seconds: list[float] = []
        self.examples: list[int] = []
        self.cpu: list[tuple[float, int]] = []
        self.losses: list[float] = []
        self._last = None

    def on_step(self, info: dict) -> None:
        end, cpu = time.perf_counter(), harness.cpu_seconds()
        self.seconds.append(info["seconds"])
        self.examples.append(round(info["examples_per_sec"]
                                   * info["seconds"]))
        self.losses.append(info["loss"])
        # CPU between consecutive steps of one epoch is one step's; the
        # first step of an epoch would also carry the evaluation before.
        if self._last is not None and self._last[0] == info["epoch"]:
            self.cpu.append((cpu - self._last[1], self.examples[-1]))
        self._last = (info["epoch"], cpu)
        self._tracer.add("matching.finetune.step", end - info["seconds"],
                         end)


def matcher_for(pretrained, epochs: int) -> EntityMatcher:
    return EntityMatcher("roberta", pretrained=pretrained,
                         seed=harness.MODEL_SEED,
                         finetune_config=FineTuneConfig(epochs=epochs))


def run(ctx) -> dict:
    splits = harness.training_splits(ctx.seed, DATA_SCALE)
    train, test = splits.train, splits.test
    small_train, small_test = train[:SMALL_EXAMPLES], test[:16]

    setup_seconds = []
    for _ in range(harness.SETUPS):
        start = time.perf_counter()
        with ctx.tracer.active(), ctx.tracer.span("pretraining.pretrain"):
            pretrained = EntityMatcher(
                "roberta", seed=harness.MODEL_SEED,
                zoo_settings=harness.zoo_settings(),
                zoo_dir=ctx.scratch.fresh("zoo")).pretrained
        matcher_for(pretrained, 1).fit(small_train, small_test)
        setup_seconds.append(time.perf_counter() - start)

    harness.settle()
    epochs = {False: [], True: []}
    steps = {False: [], True: []}
    examples = {False: 0, True: 0}
    step_seconds = {False: 0.0, True: 0.0}
    cpu_seconds, cpu_examples = 0.0, 0
    fits = {False: [], True: []}
    first = None
    failed = 0
    matcher = None
    passes = 0
    deadline = time.perf_counter() + ctx.seconds
    while (not fits[False] or (ctx.traced and not fits[True])
           or time.perf_counter() < deadline):
        tracing = ctx.traced and len(fits[False]) > len(fits[True])
        matcher = matcher_for(pretrained, EPOCHS)
        timer = StepTimes(ctx.tracer)
        t0 = time.perf_counter()
        with ctx.tracer.active(tracing), \
                ctx.tracer.span("matching.finetune.fit"):
            result = matcher.fit(train, test, callbacks=[timer])
        fits[tracing].append(time.perf_counter() - t0)
        epochs[tracing].extend(result.epoch_seconds())
        steps[tracing].extend(timer.seconds)
        examples[tracing] += sum(timer.examples)
        step_seconds[tracing] += sum(timer.seconds)
        if not tracing:
            cpu_seconds += sum(seconds for seconds, _ in timer.cpu)
            cpu_examples += sum(count for _, count in timer.cpu)
        passes += 1
        # Fits from one checkpoint with one seed must agree exactly.
        outcome = (result.final_f1, timer.losses)
        first = first or outcome
        failed += int(outcome != first)

    # Quality is judged on both held-out splits, twice the pairs of the
    # test split alone, so that it moves less between seeds.
    held_out = (splits.validation, test)
    pairs = [(pair.record_a, pair.record_b)
             for split in held_out for pair in split.pairs]
    labels = [label for split in held_out for label in split.labels()]
    decisions = [decision for split in held_out
                 for decision in matcher.predict(split)]
    f1 = harness.pair_f1(labels, decisions)
    ari = harness.pair_ari(pairs, labels, decisions)
    step_ms = [1e3 * s for s in steps[False]]
    e2e = {
        "setup_s": harness.setup_time(ctx.import_seconds,
                                      setup_seconds),
        "items_per_s": examples[False] / step_seconds[False],
        "cpu_ms_per_item": 1e3 * cpu_seconds / cpu_examples,
        "latency_p50_ms": harness.percentile(step_ms, 50),
        "latency_p90_ms": harness.percentile(step_ms, 90),
        "f1": f1,
        "ari": ari,
    }
    train_pairs = [(pair.record_a, pair.record_b) for pair in train.pairs]
    tokens_p50, tokens_p90 = harness.token_lengths(
        pretrained.tokenizer, train_pairs, result.max_length)
    records = [r.text_blob() for pair in train_pairs for r in pair]
    props = {"input.pair_repeat_share": 1 - 1 / (EPOCHS * passes),
             "input.record_repeat_share": harness.repeat_share(
                 records * (EPOCHS * passes)),
             "input.pair_tokens_p50": tokens_p50,
             "input.pair_tokens_p90": tokens_p90}

    layer = {}
    if ctx.traced:
        with profile() as ops:
            matcher_for(pretrained, 1).fit(small_train, small_test)
        layer = {
            **harness.setup_span_metrics(ctx.tracer, harness.SETUPS),
            "matching.fit_s": harness.median(fits[True]),
            "matching.finetune.epoch_s": harness.median(epochs[True]),
            "nn.tensor.ops_per_example": ops.total_calls / len(small_train),
            "nn.tensor.flops_per_example":
                ops.total_flops / len(small_train),
            "trace.overhead_share":
                (step_seconds[True] / examples[True])
                / (step_seconds[False] / examples[False]) - 1.0,
        }
        ctx.items_traced = len(train) * EPOCHS * len(fits[True])

    failed += int(f1 < MIN_F1)
    return {"correct": failed == 0,
            "attempted": len(train) * EPOCHS * passes, "failed": failed,
            "e2e": e2e, "layer": layer, "props": props}
