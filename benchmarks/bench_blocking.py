"""Blocking recall vs. reduction — the 100k-scale candidate-generation gate.

Runs the four-blocker comparison (token, sorted-neighborhood, TF-IDF
cosine, MinHash-LSH) on a small generated catalog, then the enforced
gate: on a seeded 100k-record catalog the MinHash-LSH blocker must reach
pairs-completeness >= 0.95 at reduction ratio >= 0.99, and an
end-to-end ``repro dedupe`` run over the same catalog must complete
while streaming — its high-water candidate batch bounded by the
configured emission batch, evidence the |A| x |A| cross product was
never materialized.

This suite runs at smoke scale; the 100k gate run and the committed
``BENCH_blocking.json`` come from ``python -m repro bench blocking``.
"""

from __future__ import annotations

from repro.dedupe.bench import run_blocking_benchmark
from repro.perf.harness import check_report

from _shared import emit, run_once


def test_blocking_gate(benchmark):
    report = run_once(benchmark,
                      lambda: run_blocking_benchmark(smoke=True))
    emit("blocking", "\n".join(report["summary"]))
    assert check_report(report) == []
    assert report["acceptance"]["passed"], \
        "smoke run must clear the gate floors"
    assert report["dedupe"]["streamed"]
