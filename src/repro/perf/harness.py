"""The one bench harness behind every ``repro bench`` suite.

``repro bench {perf,serve,resilient,blocking}`` and the
``benchmarks/bench_*_overhead.py`` scripts share three pieces:

* :class:`Gate` — one declarative acceptance check: a named value, a
  bound, and whether the bound is a floor (inclusive, ``value >=
  bound``) or a ceiling (exclusive, ``value < bound``).  A gate that
  carries a confidence interval is judged on the interval's side that
  faces the bound — the lower end for a floor, the upper end for a
  ceiling — so a timing gate passes only when the noise cannot explain
  the pass.
* :func:`build_report` / :func:`check_report` / :func:`write_report` —
  one report layout (``benchmark``, ``schema``, ``smoke``, ``config``,
  ``acceptance``, ``summary``, plus the suite's own sections), one
  schema check and one atomic writer.  ``summary`` is the suite's
  human-readable scorecard; the CLI and the ``benchmarks/`` scripts
  both print that list, so each suite formats its numbers once.
* :func:`paired` — the paired A/B timer.  It interleaves the two sides
  for a fixed number of cycles, alternating which side runs first, and
  reports the per-cycle ``b / a`` time ratios, their median, and a
  seeded percentile-bootstrap 95% interval of that median.  Pairing
  cancels drift that is slow relative to one cycle (CPU frequency,
  thermal state, neighbours on a shared host); alternation keeps any
  first-runner advantage off one side; the interval says how far the
  median can be trusted.

It also holds the fixture every model-backed suite shares: the tiny
model-zoo recipe, the cycled dblp-acm workload, a fitted matcher, and
the serial ``match_many`` baseline that sets the serving suites'
offered load.

Imports from ``repro.matching`` stay inside the functions: the matching
layer imports ``repro.perf`` for its scheduling/caching primitives, so a
module-level import here would be circular.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Gate", "Paired", "paired", "cycles_for", "build_report",
           "check_report", "write_report", "failed_gates",
           "tiny_settings", "build_workload", "fit_matcher",
           "serial_baseline", "SCHEMA", "CYCLES", "SMOKE_CYCLES"]

#: Layout version stamped into every report.
SCHEMA = 3
#: Paired cycles per A/B comparison on a full run.
CYCLES = 7
#: Smoke runs check plumbing, not timing: two cycles still exercise the
#: alternation.
SMOKE_CYCLES = 2
#: Bootstrap resamples behind every interval, its coverage, and the
#: seed that makes every interval reproducible.
RESAMPLES = 2000
CONFIDENCE = 0.95
BOOTSTRAP_SEED = 0

_KINDS = ("floor", "ceiling")
_REPORT_KEYS = ("benchmark", "schema", "smoke", "config", "acceptance",
                "summary")
_ACCEPTANCE_KEYS = {"enforced", "passed", "gates"}
_GATE_KEYS = {"name", "value", "bound", "kind", "interval", "passed"}


@dataclass(frozen=True)
class Gate:
    """One acceptance check; see the module doc for how it is judged."""

    name: str
    value: float
    bound: float
    kind: str = "floor"
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"gate kind must be one of {_KINDS}, "
                             f"got {self.kind!r}")

    @property
    def judged(self) -> float:
        """The number compared with the bound."""
        if self.interval is None:
            return self.value
        return self.interval[0] if self.kind == "floor" \
            else self.interval[1]

    @property
    def passed(self) -> bool:
        if self.kind == "floor":
            return bool(self.judged >= self.bound)
        return bool(self.judged < self.bound)

    def as_dict(self) -> dict:
        return {"name": self.name, "value": float(self.value),
                "bound": float(self.bound), "kind": self.kind,
                "interval": (None if self.interval is None
                             else [float(v) for v in self.interval]),
                "passed": self.passed}

    def describe(self) -> str:
        spread = ("" if self.interval is None else
                  f" [{self.interval[0]:.6g}, {self.interval[1]:.6g}]")
        relation = ">=" if self.kind == "floor" else "<"
        return (f"{self.name} {self.value:.6g}{spread} {relation} "
                f"{self.bound:g} -> {'pass' if self.passed else 'FAIL'}")


@dataclass(frozen=True)
class Paired:
    """What :func:`paired` measured: per-side seconds per cycle, the
    per-cycle ``b / a`` ratios, their median and bootstrap interval,
    and each side's result from its last call."""

    a_seconds: tuple[float, ...]
    b_seconds: tuple[float, ...]
    ratios: tuple[float, ...]
    median: float
    interval: tuple[float, float]
    a_result: Any = None
    b_result: Any = None

    def gate(self, name: str, bound: float, kind: str = "floor",
             shift: float = 0.0) -> Gate:
        """A gate on ``median + shift`` (``shift=-1`` turns a time
        ratio into an overhead fraction), judged on the interval."""
        lo, hi = self.interval
        return Gate(name, self.median + shift, bound, kind,
                    (lo + shift, hi + shift))

    def as_dict(self) -> dict:
        return {"cycles": len(self.ratios),
                "a_seconds": list(self.a_seconds),
                "b_seconds": list(self.b_seconds),
                "ratios": list(self.ratios),
                "median": self.median,
                "interval": list(self.interval)}


def cycles_for(smoke: bool) -> int:
    """Paired cycles for a smoke or a full run."""
    return SMOKE_CYCLES if smoke else CYCLES


def paired(a: Callable[[], Any], b: Callable[[], Any], *,
           cycles: int = CYCLES,
           setup_a: Callable[[], Any] | None = None,
           setup_b: Callable[[], Any] | None = None,
           clock: Callable[[], float] = time.perf_counter) -> Paired:
    """Time ``a`` and ``b`` interleaved for ``cycles`` cycles.

    Even cycles run ``a`` first, odd cycles ``b`` first.  Each side's
    ``setup`` hook runs untimed right before that side (cache clears,
    or the "on" run of an off → on → off overhead check).
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    sides = {"a": (a, setup_a), "b": (b, setup_b)}
    seconds: dict[str, list[float]] = {"a": [], "b": []}
    results: dict[str, Any] = {}
    for cycle in range(cycles):
        for side in ("ab" if cycle % 2 == 0 else "ba"):
            fn, setup = sides[side]
            if setup is not None:
                setup()
            start = clock()
            results[side] = fn()
            seconds[side].append(clock() - start)
    ratios = np.array([tb / max(ta, 1e-12) for ta, tb
                       in zip(seconds["a"], seconds["b"])])
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    draws = rng.integers(0, len(ratios), size=(RESAMPLES, len(ratios)))
    medians = np.median(ratios[draws], axis=1)
    tail = (1.0 - CONFIDENCE) / 2.0
    lo, hi = np.quantile(medians, [tail, 1.0 - tail])
    return Paired(tuple(seconds["a"]), tuple(seconds["b"]),
                  tuple(float(r) for r in ratios),
                  float(np.median(ratios)), (float(lo), float(hi)),
                  results["a"], results["b"])


def build_report(benchmark: str, *, smoke: bool, config: dict,
                 gates: list[Gate], summary: list[str],
                 **sections) -> dict:
    """Assemble a report; gate lines and the verdict end the summary.

    Gates are always evaluated; ``enforced`` is false on smoke runs,
    which are too small for stable timing.
    """
    passed = all(gate.passed for gate in gates)
    lines = list(summary) + [f"  gate {gate.describe()}" for gate in gates]
    lines.append(f"  acceptance: {'pass' if passed else 'FAIL'}"
                 f"{'' if not smoke else ' (not enforced: smoke)'}")
    return {"benchmark": benchmark, "schema": SCHEMA,
            "smoke": bool(smoke), "config": config, **sections,
            "acceptance": {"enforced": not smoke, "passed": passed,
                           "gates": [gate.as_dict() for gate in gates]},
            "summary": lines}


def check_report(report: dict) -> list[str]:
    """The one schema check; returns a list of problems (empty = valid)."""
    problems = [f"missing top-level key {key!r}" for key in _REPORT_KEYS
                if key not in report]
    if problems:
        return problems
    if not isinstance(report["benchmark"], str) or not report["benchmark"]:
        problems.append("benchmark must be a non-empty string")
    if report["schema"] != SCHEMA:
        problems.append(f"schema must be {SCHEMA}, "
                        f"got {report['schema']!r}")
    if not isinstance(report["smoke"], bool):
        problems.append("smoke must be a bool")
    if not isinstance(report["config"], dict):
        problems.append("config must be an object")
    summary = report["summary"]
    if not (isinstance(summary, list)
            and all(isinstance(line, str) for line in summary)):
        problems.append("summary must be a list of strings")
    acceptance = report["acceptance"]
    if not isinstance(acceptance, dict) \
            or set(acceptance) != _ACCEPTANCE_KEYS:
        problems.append(f"acceptance keys must be "
                        f"{sorted(_ACCEPTANCE_KEYS)}")
        return problems
    if acceptance["enforced"] is not (not report["smoke"]):
        problems.append("acceptance.enforced must be the negation of smoke")
    if not isinstance(acceptance["gates"], list):
        problems.append("acceptance.gates must be a list")
        return problems
    verdicts = []
    names = set()
    for index, entry in enumerate(acceptance["gates"]):
        where = f"gate {index}"
        if not isinstance(entry, dict) or set(entry) != _GATE_KEYS:
            keys = sorted(entry) if isinstance(entry, dict) else entry
            problems.append(f"{where} keys must be {sorted(_GATE_KEYS)}, "
                            f"got {keys}")
            continue
        where = f"gate {entry['name']!r}"
        if entry["name"] in names:
            problems.append(f"{where} is duplicated")
        names.add(entry["name"])
        try:
            interval = entry["interval"]
            if interval is not None:
                low, high = interval
                if not low <= high:
                    raise ValueError("interval must be [low, high]")
                interval = (low, high)
            passed = Gate(entry["name"], entry["value"], entry["bound"],
                          entry["kind"], interval).passed
        except (TypeError, ValueError) as exc:
            problems.append(f"{where}: {exc}")
            continue
        if entry["passed"] is not passed:
            problems.append(f"{where} passed={entry['passed']} disagrees "
                            f"with its value and bound")
        verdicts.append(passed)
    if acceptance["passed"] is not all(verdicts):
        problems.append("acceptance.passed disagrees with its gates")
    return problems


def write_report(report: dict, path: str | Path) -> Path:
    """Check, then atomically write the report JSON to ``path``."""
    from ..utils import atomic_write_text
    problems = check_report(report)
    if problems:
        raise ValueError(f"invalid {report.get('benchmark')!r} report: "
                         + "; ".join(problems))
    path = Path(path)
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True)
                      + "\n")
    return path


def failed_gates(report: dict) -> list[str]:
    """Names of the report's failed gates."""
    return [gate["name"] for gate in report["acceptance"]["gates"]
            if not gate["passed"]]


def tiny_settings():
    """The small model-zoo recipe every model-backed suite fits on."""
    from ..pretraining import ZooSettings
    return ZooSettings(base_steps=25, base_examples=150,
                       tokenizer_sentences=150, vocab_size=220,
                       d_model=32, num_layers=2, num_heads=2,
                       max_position=64, seq_len=32)


def build_workload(num_pairs: int, seed: int):
    """dblp-acm splits plus a cycled test-pair workload.

    The workload cycles the test split's pairs up to the requested
    count with the unique pool capped at half the workload, so every
    record really is re-matched at least once — the cacheable shape.
    Train/validation stay held out for fitting and cascade band
    selection.
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


def fit_matcher(arch: str, splits, seed: int, zoo_dir):
    from ..matching import EntityMatcher, FineTuneConfig
    matcher = EntityMatcher(
        arch, seed=seed, zoo_settings=tiny_settings(), zoo_dir=zoo_dir,
        # 3 epochs is the knee: 1 epoch leaves both models all-negative
        # (F1 0.0 — the cascade and F1 gates would pass vacuously),
        # 3 gives DistilBERT ~0.86 / RoBERTa ~1.0 on the test split so
        # band calibration has a real gap to close.
        finetune_config=FineTuneConfig(epochs=3, batch_size=8,
                                       max_length_cap=32))
    matcher.fit(splits.train, splits.validation)
    return matcher


def serial_baseline(matcher, pairs) -> dict:
    """One warm ``match_many`` pass: the rate the serving suites offer."""
    matcher.match_many(pairs[:8], fast=True)  # warm the token cache
    start = time.perf_counter()
    outcomes = matcher.match_many(pairs, fast=True)
    seconds = time.perf_counter() - start
    return {"pairs": len(pairs), "seconds": seconds,
            "pairs_per_sec": len(pairs) / max(seconds, 1e-9),
            "degraded": sum(1 for outcome in outcomes if outcome.degraded)}
