"""Blocking recall vs. reduction — the 100k-scale candidate-generation gate.

Runs the four-blocker comparison (token, sorted-neighborhood, TF-IDF
cosine, MinHash-LSH) on a small generated catalog, then the enforced
gate: on a seeded 100k-record catalog the MinHash-LSH blocker must reach
pairs-completeness >= 0.95 at reduction ratio >= 0.99
(``repro.dedupe.BlockingGates``), and an end-to-end ``repro dedupe`` run
over the same catalog must complete while streaming — its high-water
candidate batch bounded by the configured emission batch, evidence the
|A| x |A| cross product was never materialized.

The report is recorded in ``BENCH_blocking.json`` at the repo root.
``--smoke`` shrinks both catalogs to validate plumbing and the report
schema without the 100k run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.dedupe.bench import (BlockingBenchConfig, run_blocking_benchmark,
                                validate_report, write_report)

from _shared import emit, run_once

REPORT_PATH = Path(__file__).parent.parent / "BENCH_blocking.json"


def _format_report(report: dict) -> str:
    config = report["config"]
    lines = [f"blocking recall vs. reduction "
             f"(comparison at {config['comparison_records']} records, "
             f"gate at {config['num_records']}"
             f"{', smoke' if report['smoke'] else ''})"]
    for name, entry in report["comparison"].items():
        lines.append(
            f"  {name:<20} PC {entry['pairs_completeness']:.3f}  "
            f"RR {entry['reduction_ratio']:.4f}  "
            f"{entry['num_candidates']:>8} candidates  "
            f"{entry['seconds']:7.3f}s")
    gate = report["gate"]
    lines.append(
        f"  gate (minhash_lsh @ {gate['records']} records): "
        f"PC {gate['pairs_completeness']:.4f}, "
        f"RR {gate['reduction_ratio']:.6f}, "
        f"{gate['num_candidates']} candidates in {gate['seconds']}s")
    dedupe = report["dedupe"]
    stages = ", ".join(f"{stage} {seconds}s" for stage, seconds
                       in dedupe["stage_seconds"].items())
    lines.append(
        f"  dedupe: {dedupe['records']} records -> "
        f"{dedupe['entities']} entities (gold {dedupe['gold_entities']}) "
        f"in {dedupe['seconds']}s ({stages}), peak batch "
        f"{dedupe['max_candidate_batch']}/"
        f"{dedupe['candidate_batch_limit']} "
        f"({'streamed' if dedupe['streamed'] else 'NOT STREAMED'}), "
        f"peak RSS {dedupe['peak_rss_mb']} MB")
    acc = report["acceptance"]
    lines.append(
        f"  acceptance: PC {acc['pairs_completeness']:.4f}/"
        f"{acc['pairs_completeness_floor']}, "
        f"RR {acc['reduction_ratio']:.6f}/"
        f"{acc['reduction_ratio_floor']}, streamed {acc['streamed']} -> "
        f"{'pass' if acc['passed'] else 'FAIL'}"
        f"{'' if acc['enforced'] else ' (not enforced: smoke)'}")
    return "\n".join(lines)


def _run(smoke: bool, records: int, seed: int, write) -> dict:
    config = BlockingBenchConfig(num_records=records, seed=seed)
    report = run_blocking_benchmark(config, smoke=smoke)
    problems = validate_report(report)
    if problems:
        raise AssertionError(f"invalid BENCH_blocking report: {problems}")
    if write:
        write_report(report, write if write is not True else REPORT_PATH)
    return report


def test_blocking_gate(benchmark):
    # Smoke scale inside the suite: the 100k gate run belongs to
    # `repro bench blocking` / `python benchmarks/bench_blocking.py`.
    report = run_once(benchmark,
                      lambda: _run(smoke=True, records=2_000, seed=7,
                                   write=False))
    emit("blocking", _format_report(report))
    acc = report["acceptance"]
    assert acc["passed"], "smoke run must clear the gate floors"
    assert report["dedupe"]["streamed"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="blocking recall vs. reduction with the enforced "
                    "100k MinHash-LSH gate")
    parser.add_argument("--smoke", action="store_true",
                        help="small catalogs, schema check only (CI)")
    parser.add_argument("--records", type=int, default=100_000,
                        help="gate-scale catalog size (default 100000)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default=None,
                        help=f"report path (default: {REPORT_PATH})")
    parser.add_argument("--no-write", dest="write", action="store_false",
                        help="skip writing the report")
    args = parser.parse_args(argv)
    write = (args.output or True) if args.write else False
    report = _run(smoke=args.smoke, records=args.records, seed=args.seed,
                  write=write)
    print(_format_report(report))
    if args.write:
        print(f"report written to {args.output or REPORT_PATH}")
    acc = report["acceptance"]
    return 0 if (acc["passed"] or not acc["enforced"]) else 1


if __name__ == "__main__":
    sys.exit(main())
