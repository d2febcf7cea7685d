"""The performance benchmark behind ``repro bench perf`` (schema v2).

Measures ``match_many`` throughput (pairs/sec) for every architecture
under the baseline path (serial per-pair matching, no tokenization
cache), the fast path (length-bucketed batches, tokenization cache), and
— new in schema 2 — the
**int8 quantized** fast path (calibrated per-channel kernels, see
DESIGN.md §16) plus the **DistilBERT→RoBERTa confidence cascade**.  The
cascade section carries the headline aggregate number: cascade pairs/sec
over the RoBERTa serial baseline on the same workload, gated
at ≥4× with cascade F1 within tolerance of RoBERTa-only.

Every acceptance floor lives in :class:`PerfGates` (per-architecture
speedups, the cascade aggregate, the quantization decision-consistency
floor, the F1 tolerance) instead of scattered hard-coded constants;
:class:`PerfConfig` bundles the gates with the quantization/cascade
knobs.  The report is written to ``BENCH_perf.json`` with ``"schema": 2``
so downstream consumers can detect the field change instead of silently
misreading v1 files.

Imports from ``repro.matching`` stay inside the functions: the matching
layer imports ``repro.perf`` for its scheduling/caching primitives, so a
module-level import here would be circular.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = ["run_perf_benchmark", "write_report", "validate_report",
           "DEFAULT_ARCHS", "SCHEMA_VERSION",
           "PerfGates", "PerfConfig"]

DEFAULT_ARCHS = ("bert", "roberta", "distilbert", "xlnet")

#: Report schema version stamped into BENCH_perf.json.
SCHEMA_VERSION = 2

# Per-architecture fast-path speedup floors.  BERT keeps the historical
# 2.0 gate; XLNet's two-stream attention leaves less fusable work so its
# floor is lower.
_ARCH_SPEEDUP_FLOORS = (("bert", 2.0), ("roberta", 1.8),
                        ("distilbert", 1.8), ("xlnet", 1.5))

_REPORT_KEYS = ("benchmark", "schema", "smoke", "config",
                "architectures", "cascade", "acceptance")
_ARCH_KEYS = ("pairs", "baseline_seconds", "baseline_pairs_per_sec",
              "fast_seconds", "fast_pairs_per_sec", "speedup", "phases",
              "cache", "decisions_consistent", "quantized")
_ACCEPTANCE_KEYS = ("enforced", "passed", "architectures",
                    "quantization", "cascade", "f1")


@dataclass(frozen=True)
class PerfGates:
    """Every acceptance floor of the perf benchmark in one place.

    ``arch_speedups`` maps architecture -> fast-path speedup floor (as a
    name/floor tuple so the config stays hashable);
    ``cascade_speedup`` is the aggregate cascade-over-RoBERTa-baseline
    floor; ``consistency_floor`` the minimum decision-agreement fraction
    for the int8 path; ``f1_tolerance`` how far cascade F1 may trail
    RoBERTa-only F1.
    """

    arch_speedups: tuple[tuple[str, float], ...] = _ARCH_SPEEDUP_FLOORS
    cascade_speedup: float = 4.0
    consistency_floor: float = 1.0
    f1_tolerance: float = 0.005

    def arch_floor(self, arch: str) -> float:
        """The fast-path speedup floor for ``arch`` (1.0 if unlisted)."""
        return dict(self.arch_speedups).get(arch, 1.0)

    def as_dict(self) -> dict:
        """JSON-ready view for the report's config section."""
        return {"arch_speedups": dict(self.arch_speedups),
                "cascade_speedup": self.cascade_speedup,
                "consistency_floor": self.consistency_floor,
                "f1_tolerance": self.f1_tolerance}


@dataclass(frozen=True)
class PerfConfig:
    """Benchmark configuration: gates plus quantization/cascade knobs.

    ``quantize`` toggles the int8 calibration + timing per
    architecture; ``cascade`` the two-model cascade section;
    ``calibration_pairs`` how many training pairs feed the calibration
    sweep (an equal held-out slice gates decision consistency);
    ``primary``/``secondary`` name the cascade's cheap and strong
    models; ``repeats`` is the best-of-N count for every timed path
    (scheduler interference only ever adds time, so the minimum is the
    noise-robust estimator — single-shot timings of these tiny models
    swing 2x run to run on a busy host).
    """

    gates: PerfGates = field(default_factory=PerfGates)
    quantize: bool = True
    cascade: bool = True
    calibration_pairs: int = 64
    primary: str = "distilbert"
    secondary: str = "roberta"
    repeats: int = 3


def _tiny_settings():
    from ..pretraining import ZooSettings
    return ZooSettings(base_steps=25, base_examples=150,
                       tokenizer_sentences=150, vocab_size=220,
                       d_model=32, num_layers=2, num_heads=2,
                       max_position=64, seq_len=32)


def _best_seconds(fn, repeats: int, setup=None):
    """Best-of-N wall time for ``fn`` plus its last result.

    ``setup`` runs before each repeat *outside* the timed region (cache
    clears, so every repeat measures the same cold-cache shape).  The
    minimum is the right estimator here: the forward passes are
    deterministic, so repeats differ only by scheduler interference,
    which strictly adds time.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        if setup is not None:
            setup()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _build_workload(num_pairs: int, seed: int):
    """dblp-acm splits plus a cycled test-pair workload.

    The workload cycles the test split's pairs up to the requested
    count with the unique pool capped at half the workload, so every
    record really is re-matched at least once — the cacheable shape.
    Train/validation stay held out for fitting, quantization
    calibration, and cascade band selection.
    """
    from ..data import load_benchmark, split_dataset
    from ..utils import child_rng
    data = load_benchmark("dblp-acm", seed=seed, scale=0.05)
    splits = split_dataset(data, child_rng(seed, "split", "bench-perf"))
    base = [(p.record_a, p.record_b) for p in splits.test.pairs]
    if not base:
        raise RuntimeError("dblp-acm produced no test pairs")
    base = base[:max(1, num_pairs // 2)]
    pairs = [base[i % len(base)] for i in range(num_pairs)]
    return splits, pairs


def _calibration_split(train, count: int):
    """Disjoint (calibration, holdout) pair lists from the train split."""
    pairs = [(p.record_a, p.record_b) for p in train.pairs]
    count = max(1, min(count, len(pairs) // 2 or 1))
    calibration = pairs[:count]
    holdout = pairs[count:2 * count] or calibration
    return calibration, holdout


def _fit_matcher(arch: str, splits, seed: int, zoo_dir):
    from ..matching import EntityMatcher, FineTuneConfig
    matcher = EntityMatcher(
        arch, seed=seed, zoo_settings=_tiny_settings(), zoo_dir=zoo_dir,
        # 3 epochs is the knee: 1 epoch leaves both models all-negative
        # (F1 0.0 — the cascade and F1 gates would pass vacuously),
        # 3 gives DistilBERT ~0.86 / RoBERTa ~1.0 on the test split so
        # band calibration has a real gap to close.
        finetune_config=FineTuneConfig(epochs=3, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(splits.train, splits.validation)
    return matcher


def _bench_arch(matcher, pairs, batch_size: int, config: PerfConfig,
                calibration, holdout) -> dict:
    from ..obs import default_registry
    tokenizer = matcher.pretrained.tokenizer

    # Baseline: per-pair serial matching without the tokenization cache,
    # through the same tape-off forward as the fast path.
    tokenizer.cache = None
    baseline_seconds, baseline = _best_seconds(
        lambda: matcher.match_many(pairs, fast=False), config.repeats)

    # Fast path: bucketed batches + tokenization cache.
    cache = matcher.ensure_token_cache()
    registry = default_registry()
    fast_seconds, fast = _best_seconds(
        lambda: matcher.match_many(pairs, fast=True,
                                   batch_size=batch_size),
        config.repeats, setup=cache.clear)

    n = len(pairs)
    entry = {
        "pairs": n,
        "baseline_seconds": baseline_seconds,
        "baseline_pairs_per_sec": n / max(baseline_seconds, 1e-9),
        "fast_seconds": fast_seconds,
        "fast_pairs_per_sec": n / max(fast_seconds, 1e-9),
        "speedup": baseline_seconds / max(fast_seconds, 1e-9),
        "phases": {
            "encode_seconds":
                registry.gauge("perf.match.encode_seconds").value,
            "forward_seconds":
                registry.gauge("perf.match.forward_seconds").value,
        },
        "cache": {"hits": int(cache.hits), "misses": int(cache.misses),
                  "hit_rate": cache.hit_rate},
        "decisions_consistent": all(
            a.matched == b.matched for a, b in zip(baseline, fast)),
        "quantized": None,
    }
    if config.quantize:
        entry["quantized"] = _bench_quantized(
            matcher, pairs, batch_size, config, calibration, holdout)
    return entry


def _bench_quantized(matcher, pairs, batch_size: int, config: PerfConfig,
                     calibration, holdout) -> dict:
    """Calibrate int8 weights, gate decision consistency, time the path."""
    matcher.quantize(calibration, batch_size=batch_size)
    report = matcher.quantization_consistency(holdout,
                                              batch_size=batch_size)
    cache = matcher.ensure_token_cache()
    seconds, _ = _best_seconds(
        lambda: matcher.match_many(pairs, fast=True,
                                   batch_size=batch_size, quantized=True),
        config.repeats, setup=cache.clear)
    floor = config.gates.consistency_floor
    return {
        "calibration_pairs": len(calibration),
        "holdout_pairs": report.pairs,
        "seconds": seconds,
        "pairs_per_sec": len(pairs) / max(seconds, 1e-9),
        "consistency": report.consistency,
        "max_probability_delta": report.max_probability_delta,
        "decisions_consistent": report.passed(floor),
        "artifact_bytes": matcher.quantized_weights.nbytes,
    }


def _bench_cascade(primary, secondary, splits, pairs, batch_size: int,
                   config: PerfConfig, architectures: dict) -> dict:
    """Calibrate the ambiguity band and time the two-model cascade."""
    from ..matching import build_cascade, evaluate_predictions
    quantized_primary = (config.quantize
                         and primary.quantized_weights is not None)
    cascade = build_cascade(primary, secondary, splits.validation,
                            tolerance=config.gates.f1_tolerance,
                            batch_size=batch_size,
                            quantized=quantized_primary)
    band = cascade.calibration

    test_pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    labels = splits.test.labels()
    outcomes = cascade.score_pairs(test_pairs, fallback=False,
                                   batch_size=batch_size)
    f1_cascade = evaluate_predictions(
        labels, [o.matched for o in outcomes]).f1
    reference = secondary.engine().score_pairs(test_pairs, fallback=False,
                                               batch_size=batch_size)
    f1_secondary = evaluate_predictions(
        labels, [o.matched for o in reference]).f1

    def _clear_caches():
        primary.ensure_token_cache().clear()
        secondary.ensure_token_cache().clear()

    seconds, _ = _best_seconds(
        lambda: cascade.score_pairs(pairs, fallback=False,
                                    batch_size=batch_size),
        config.repeats, setup=_clear_caches)

    n = len(pairs)
    baseline_seconds = architectures.get(
        config.secondary, {}).get("baseline_seconds")
    aggregate = (baseline_seconds / max(seconds, 1e-9)
                 if baseline_seconds else 0.0)
    return {
        "primary": config.primary,
        "secondary": config.secondary,
        "quantized_primary": quantized_primary,
        "band": {"lo": band.lo, "hi": band.hi,
                 "validation_escalation_rate": band.escalation_rate},
        "pairs": n,
        "seconds": seconds,
        "pairs_per_sec": n / max(seconds, 1e-9),
        "baseline_seconds": baseline_seconds,
        "baseline_pairs_per_sec": (
            n / max(baseline_seconds, 1e-9) if baseline_seconds else 0.0),
        "aggregate_speedup": aggregate,
        "escalation_rate": cascade.last_escalation_rate(),
        "f1": {"cascade": f1_cascade, "secondary": f1_secondary,
               "delta": f1_cascade - f1_secondary},
    }


def _acceptance(architectures: dict, cascade: dict | None,
                gates: PerfGates, smoke: bool) -> dict:
    """Evaluate every gate; smoke runs report but never enforce."""
    arch_results = {}
    for arch, entry in architectures.items():
        floor = gates.arch_floor(arch)
        arch_results[arch] = {
            "speedup": entry["speedup"], "floor": floor,
            "passed": bool(entry["speedup"] >= floor
                           and entry["decisions_consistent"])}
    quant_results = {}
    for arch, entry in architectures.items():
        quantized = entry.get("quantized")
        if quantized is not None:
            quant_results[arch] = {
                "consistency": quantized["consistency"],
                "floor": gates.consistency_floor,
                "passed": bool(quantized["decisions_consistent"])}
    cascade_result = None
    f1_result = None
    if cascade is not None:
        cascade_result = {
            "aggregate_speedup": cascade["aggregate_speedup"],
            "floor": gates.cascade_speedup,
            "passed": bool(cascade["aggregate_speedup"]
                           >= gates.cascade_speedup)}
        delta = cascade["f1"]["delta"]
        f1_result = {
            "delta": delta, "tolerance": gates.f1_tolerance,
            # Matching or beating the secondary is a pass; only a drop
            # beyond tolerance fails.
            "passed": bool(delta >= -gates.f1_tolerance)}
    checks = [result["passed"] for result in arch_results.values()]
    checks += [result["passed"] for result in quant_results.values()]
    if cascade_result is not None:
        checks.append(cascade_result["passed"])
    if f1_result is not None:
        checks.append(f1_result["passed"])
    return {
        # Smoke runs are too small for stable timing; gates are only
        # enforced on full runs.
        "enforced": not smoke,
        "passed": bool(smoke or all(checks)),
        "architectures": arch_results,
        "quantization": quant_results,
        "cascade": cascade_result,
        "f1": f1_result,
    }


def run_perf_benchmark(archs=DEFAULT_ARCHS, num_pairs: int = 200,
                       seed: int = 0, zoo_dir=None, batch_size: int = 64,
                       smoke: bool = False,
                       config: PerfConfig | None = None) -> dict:
    """Run the benchmark and return the report dict (see module doc)."""
    if config is None:
        config = PerfConfig()
    if smoke:
        num_pairs = min(num_pairs, 24)
        # Smoke validates plumbing/schema, never timing — one repeat.
        config = replace(config, repeats=1)
    splits, pairs = _build_workload(num_pairs, seed)
    calibration, holdout = _calibration_split(
        splits.train, 8 if smoke else config.calibration_pairs)
    architectures = {}
    matchers = {}
    for arch in archs:
        matcher = _fit_matcher(arch, splits, seed, zoo_dir)
        matchers[arch] = matcher
        architectures[arch] = _bench_arch(matcher, pairs, batch_size,
                                          config, calibration, holdout)
    cascade = None
    if (config.cascade and config.primary in matchers
            and config.secondary in matchers):
        cascade = _bench_cascade(matchers[config.primary],
                                 matchers[config.secondary], splits,
                                 pairs, batch_size, config,
                                 architectures)
    report = {
        "benchmark": "perf",
        "schema": SCHEMA_VERSION,
        "smoke": bool(smoke),
        "config": {"archs": list(archs), "pairs": num_pairs,
                   "seed": seed, "batch_size": batch_size,
                   "quantize": config.quantize,
                   "cascade": config.cascade,
                   "calibration_pairs": config.calibration_pairs,
                   "repeats": config.repeats,
                   "gates": config.gates.as_dict()},
        "architectures": architectures,
        "cascade": cascade,
        "acceptance": _acceptance(architectures, cascade, config.gates,
                                  smoke),
    }
    return report


def validate_report(report: dict) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems = []
    for key in _REPORT_KEYS:
        if key not in report:
            problems.append(f"missing top-level key {key!r}")
    if report.get("benchmark") != "perf":
        problems.append("benchmark field must be 'perf'")
    if report.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema field must be {SCHEMA_VERSION}, "
            f"got {report.get('schema')!r}")
    for arch, entry in report.get("architectures", {}).items():
        for key in _ARCH_KEYS:
            if key not in entry:
                problems.append(f"architectures[{arch!r}] missing {key!r}")
    cascade = report.get("cascade")
    if cascade is not None:
        for key in ("primary", "secondary", "band", "pairs_per_sec",
                    "aggregate_speedup", "escalation_rate", "f1"):
            if key not in cascade:
                problems.append(f"cascade missing {key!r}")
    acceptance = report.get("acceptance", {})
    for key in _ACCEPTANCE_KEYS:
        if key not in acceptance:
            problems.append(f"acceptance missing {key!r}")
    return problems


def write_report(report: dict, path: str | Path) -> Path:
    """Atomically write the report JSON to ``path``."""
    from ..utils import atomic_write_text
    path = Path(path)
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True)
                      + "\n")
    return path
