"""Repeatability check: run workloads over several seeds, report spreads.

Usage, from the root of the repository::

    python3 perfbench/repeat.py --runs 10 [--workloads serve-zipf,...]
        [--first-seed 1] [--save runs.json] [--compare earlier.json]

Each workload runs ``--runs`` times, seed after seed, one process at a
time, for ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, the distance between the quartiles as a share of
the median, next to the metric's bound.  ``--compare`` checks that no
median got worse than a saved set's by more than the bound.  The exit
code is 1 if a run failed or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1]), wall


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / abs(q2) if q2 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default all")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]] if not args.workloads
             else args.workloads.split(","))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}

    ok = True
    saved: dict[str, dict[str, list[float]]] = {}
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in metrics}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(workload, seed, spec["run_seconds"])
            walls.append(wall)
            print(f"{workload} seed {seed} ({wall:.0f} s): " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.4g}"
                for name in metrics), flush=True)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct "
                      f"{result['correct']}, failed {result['failed']} of "
                      f"{result['attempted']}")
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = values
        print(f"\n{workload}: {args.runs} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, metric in metrics.items():
            med, q1, q3, spread = summarize(values[name])
            bound = metric["bound"]
            verdict = ("ok" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            if spread > bound:
                ok = False
            line = (f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{spread:>8.4f} {bound:>6} {verdict}")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                worse = ((before - med) / before
                         if metric["better"] == "higher"
                         else (med - before) / before)
                line += f"  vs saved {before:.6g} ({100 * worse:+.1f} % worse)"
                if worse > bound:
                    ok = False
                    line += " REGRESSED"
            print(line)
    if args.save:
        args.save.write_text(json.dumps(saved))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
