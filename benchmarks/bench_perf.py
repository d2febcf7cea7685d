"""Inference throughput — fast path, int8 kernels and the cascade.

Times ``match_many`` for every architecture on the same workload
(dblp-acm record pairs, each unique pair matched twice so the
tokenization cache sees repeats):

1. baseline — serial per-pair matching without the tokenization cache,
   through the same tape-off forward;
2. fast — length-bucketed batches + tokenization cache;
3. int8 — the fast path over calibrated per-channel quantized weights
   (gated on decision consistency with the float path, not speed);
4. cascade — DistilBERT screens every pair, ambiguous ones escalate to
   RoBERTa; the aggregate floor is >= 4x the RoBERTa serial baseline
   with cascade F1 within tolerance of RoBERTa-only.

Every floor lives in ``repro.perf.PerfGates``; the schema-2 report is
recorded in ``BENCH_perf.json`` at the repo root.  ``--smoke`` runs a
few pairs only to validate plumbing and the report schema.  Decisions
must agree between paths — a speedup that changes answers is a bug,
not an optimization.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.perf import run_perf_benchmark, validate_report, write_report

from _shared import emit, run_once

REPORT_PATH = Path(__file__).parent.parent / "BENCH_perf.json"


def _format_report(report: dict) -> str:
    lines = [f"match_many throughput "
             f"({report['config']['pairs']} pairs, batch size "
             f"{report['config']['batch_size']}"
             f"{', smoke' if report['smoke'] else ''})"]
    for arch, entry in report["architectures"].items():
        cache = entry["cache"]
        lines.append(
            f"  {arch:<10} {entry['baseline_pairs_per_sec']:8.1f} -> "
            f"{entry['fast_pairs_per_sec']:8.1f} pairs/s  "
            f"({entry['speedup']:.2f}x, cache hit rate "
            f"{cache['hit_rate']:.2f}, decisions "
            f"{'ok' if entry['decisions_consistent'] else 'DIVERGED'})")
        quantized = entry["quantized"]
        if quantized:
            lines.append(
                f"    int8   {quantized['pairs_per_sec']:8.1f} pairs/s  "
                f"(consistency {quantized['consistency']:.3f}, "
                f"artifact {quantized['artifact_bytes'] / 1024:.0f} KiB)")
    cascade = report["cascade"]
    if cascade:
        band = cascade["band"]
        lines.append(
            f"  cascade {cascade['primary']} -> {cascade['secondary']}: "
            f"{cascade['pairs_per_sec']:.1f} pairs/s, "
            f"{cascade['aggregate_speedup']:.2f}x aggregate, band "
            f"[{band['lo']:.3f}, {band['hi']:.3f}], escalation "
            f"{cascade['escalation_rate'] * 100.0:.1f}%, F1 delta "
            f"{cascade['f1']['delta']:+.4f}")
    acc = report["acceptance"]
    gates = [f"{arch} {gate['speedup']:.2f}x/{gate['floor']}x"
             for arch, gate in acc["architectures"].items()]
    if acc["cascade"]:
        gates.append(f"cascade "
                     f"{acc['cascade']['aggregate_speedup']:.2f}x/"
                     f"{acc['cascade']['floor']}x")
    lines.append(f"  acceptance: {', '.join(gates)} -> "
                 f"{'pass' if acc['passed'] else 'FAIL'}"
                 f"{'' if acc['enforced'] else ' (not enforced: smoke)'}")
    return "\n".join(lines)


def _run(smoke: bool, pairs: int, write, archs=None,
         zoo_dir=None) -> dict:
    kwargs = {} if archs is None else {"archs": archs}
    if zoo_dir is not None:
        report = run_perf_benchmark(num_pairs=pairs, smoke=smoke,
                                    zoo_dir=zoo_dir, **kwargs)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            report = run_perf_benchmark(num_pairs=pairs, smoke=smoke,
                                        zoo_dir=Path(tmp) / "zoo",
                                        **kwargs)
    problems = validate_report(report)
    if problems:
        raise AssertionError(f"invalid BENCH_perf report: {problems}")
    if write:
        write_report(report, write if write is not True else REPORT_PATH)
    return report


def test_perf_throughput(benchmark):
    report = run_once(benchmark, lambda: _run(smoke=False, pairs=200,
                                              write=True))
    emit("perf", _format_report(report))
    assert all(e["decisions_consistent"]
               for e in report["architectures"].values())
    acc = report["acceptance"]
    assert all(gate["passed"] for gate in acc["architectures"].values())
    assert all(gate["passed"] for gate in acc["quantization"].values())
    assert acc["cascade"] is None or acc["cascade"]["passed"]
    assert acc["f1"] is None or acc["f1"]["passed"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="match_many throughput: serial vs. bucketed "
                    "vs. int8 vs. the DistilBERT->RoBERTa cascade")
    parser.add_argument("--smoke", action="store_true",
                        help="few pairs, schema check only (CI)")
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--archs", default=None,
                        help="comma-separated subset of architectures "
                             "(default: all four)")
    parser.add_argument("--zoo-dir", default=None,
                        help="model-zoo cache directory (default: a "
                             "throwaway temp dir)")
    parser.add_argument("--output", default=None,
                        help=f"report path (default: {REPORT_PATH})")
    parser.add_argument("--no-write", dest="write", action="store_false",
                        help="skip writing the report")
    args = parser.parse_args(argv)
    archs = tuple(args.archs.split(",")) if args.archs else None
    write = (args.output or True) if args.write else False
    report = _run(smoke=args.smoke, pairs=args.pairs, write=write,
                  archs=archs, zoo_dir=args.zoo_dir)
    print(_format_report(report))
    if args.write:
        print(f"report written to {args.output or REPORT_PATH}")
    acc = report["acceptance"]
    return 0 if (acc["passed"] or not acc["enforced"]) else 1


if __name__ == "__main__":
    sys.exit(main())
