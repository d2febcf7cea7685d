"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
reduced ``ExperimentScale.bench()`` protocol (override with the
REPRO_BENCH_SCALE / REPRO_BENCH_EPOCHS / REPRO_BENCH_RUNS environment
variables).  Each run prints the rows/series the paper reports, side by
side with the paper's numbers where applicable, and writes the same text
to ``benchmarks/out/``.  Completed fine-tuning cells are cached in the
local, git-ignored ``.bench_cache/`` (``REPRO_BENCH_CACHE``) so the table
and figure benches share work; the cell key hashes the protocol
settings, not the code, so clear it after a change that moves training.

Telemetry: ``run_once`` bookmarks the process tracer before the timed
call, and ``emit`` writes a ``<name>.telemetry.jsonl`` sidecar next to
the text output containing every tracing span recorded during the run
(fine-tune epochs/evals, pre-training, DeepMatcher epochs, ...), so the
BENCH_*.json trajectories gain per-phase timing.  Render a sidecar with
``python -m repro telemetry benchmarks/out/<name>.telemetry.jsonl``.
"""

from __future__ import annotations

from pathlib import Path

from repro.evaluation import ExperimentScale
from repro.obs import JsonlSink, TelemetryRun, default_tracer

OUT_DIR = Path(__file__).parent / "out"

# Tracer bookmark taken by the most recent run_once(); emit() drains the
# spans completed after it into the telemetry sidecar.
_TRACE_MARK = 0


def bench_scale() -> ExperimentScale:
    return ExperimentScale.bench()


def emit(name: str, text: str) -> str:
    """Print a result block and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    _write_telemetry_sidecar(name)
    print(f"\n{text}\n")
    return text


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    global _TRACE_MARK
    _TRACE_MARK = default_tracer().mark()
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def _write_telemetry_sidecar(name: str) -> None:
    path = OUT_DIR / f"{name}.telemetry.jsonl"
    run = TelemetryRun(JsonlSink(path), run_id=f"bench-{name}",
                       span_mark=_TRACE_MARK)
    run.emit("run_begin", command="bench", name=name)
    run.close()
