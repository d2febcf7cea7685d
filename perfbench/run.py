"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve-zipf --seed 1 \\
        --seconds 30 --trace 0

The inputs are generated from ``--seed`` before the set-up clock starts;
the program then sets up (``SETUPS`` times, reporting the median),
warms up, and measures for ``--seconds``.  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric instead, measured on traced passes that alternate with
untraced ones, and the spans are written to
``.perfbench/traces/<workload>-seed<seed>.json``.  Metrics a workload
does not exercise read 0 in the traced run.  The exit code is 0 only
when a result was printed.
"""

import os
import sys


def _hash_seed(argv):
    """``PYTHONHASHSEED`` for the run: its ``--seed``, if one is given."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seed" and value.lstrip("-").isdigit():
            return str(int(value) % 2**32)
    return None


# The hash seed and the address-space layout decide part of the
# program's speed: one dedupe input ran its passes in 0.42 s or 0.54 s
# depending on the process.  The run re-executes itself once (the same
# process, no child) with the hash seed taken from --seed, and leaves
# address randomization on, so that runs over many seeds sample both
# instead of every run carrying the one sample a fixed setting picks.
_SEED = _hash_seed(sys.argv)
if _SEED is not None and os.environ.get("PYTHONHASHSEED") != _SEED:
    os.environ["PYTHONHASHSEED"] = _SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])

# BLAS is pinned to one thread before numpy loads: the benchmark box has
# two cores, and serving needs the second one for its worker thread.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"serve-zipf": "serve_zipf", "dedupe-minhash": "dedupe_minhash",
             "finetune-roberta": "finetune_roberta"}
#: Spans whose self time is reported, per item of a traced pass.
SELF_TIME_SPANS = (
    "tokenizers.encode_pair", "models.predict_proba",
    "matching.engine.primary", "matching.engine.secondary",
    "matching.cascade", "serve.backend", "serve.submit",
    "blocking.iter_candidates", "dedupe.score_pairs",
    "dedupe.dedupe_records", "matching.finetune.fit",
    "matching.finetune.step")


class Context:
    """What a workload's ``run`` receives; it fills ``notes`` and
    ``items_traced``."""

    def __init__(self, args, import_seconds: list, harness):
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.import_seconds = import_seconds
        self.tracer = harness.Tracer(f"{args.workload}-seed{args.seed}",
                                     traced=self.traced)
        self.stats = harness.LayerStats()
        self.scratch = harness.Scratch(ROOT / ".perfbench" / "tmp")
        self.notes: list[str] = []
        self.items_traced = 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(module: str, times: int) -> list[float]:
    """Seconds a fresh interpreter takes to import the harness and the
    workload ``module``, and through them the program, ``times`` times.

    Each set-up of a run counts one import.  Imports are timed in child
    processes because a process imports only once; every child has
    ended when this returns.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "start = time.perf_counter(); "
            f"import harness, {module}; "
            "print(time.perf_counter() - start)")
    seconds = []
    for _ in range(times):
        child = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "perfbench"),
             str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120)
        seconds.append(float(child.stdout))
    return seconds


def self_time_metrics(tracer, items: int) -> dict:
    totals = tracer.totals()
    return {f"{name}.self_us_per_item":
            1e6 * totals.get(name, (0, 0.0, 0.0))[2] / max(items, 1)
            for name in SELF_TIME_SPANS}


def print_table(title: str, rows: dict, units: dict) -> None:
    print(f"\n{title}")
    for name, value in rows.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        harness = importlib.import_module("harness")
        workload = importlib.import_module(WORKLOADS[args.workload])
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    ctx = Context(args, import_seconds(WORKLOADS[args.workload],
                                       harness.SETUPS), harness)
    try:
        result = workload.run(ctx)
        layer = {}
        if ctx.traced:
            layer = {**result["layer"], **result["props"],
                     **self_time_metrics(ctx.tracer, ctx.items_traced)}
            ctx.tracer.write(ROOT / ".perfbench" / "traces"
                             / f"{ctx.tracer.run_id}.json")
    finally:
        ctx.scratch.close()

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for note in ctx.notes:
        print(f"note: {note}")
    print_table("input properties", result["props"], layer_units)
    print_table("end-to-end (untraced passes)", result["e2e"], e2e_units)
    if ctx.traced:
        unknown = sorted(set(layer) - set(layer_units))
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        layer = {name: layer.get(name, 0.0) for name in layer_units}
        print_table("per-layer (traced passes; 0 = layer not exercised)",
                    layer, layer_units)
        print(f"\ntracing overhead: "
              f"{100 * layer['trace.overhead_share']:+.1f} % per item")
        chosen, units = layer, layer_units
    else:
        chosen, units = result["e2e"], e2e_units
        missing = sorted(set(units) - set(chosen))
        if missing:
            raise KeyError(f"workload did not measure {missing}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(chosen[name]), "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
