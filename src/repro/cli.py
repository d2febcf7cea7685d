"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table 3 statistics for the five benchmarks (optionally at a
    reduced scale).
``generate``
    Write one benchmark to a CSV file.
``pretrain``
    Build (or rebuild) the model-zoo checkpoint for an architecture.
``match``
    Fine-tune an architecture on a benchmark and report test F1.
    With ``--checkpoint-dir`` the run snapshots its full training state
    (resume with ``--resume`` or ``repro resume``).  With ``--cascade``
    a DistilBERT primary screens every pair first and only pairs inside
    the calibrated ambiguity band escalate to the named architecture.
``resume``
    Continue an interrupted ``match --checkpoint-dir`` run from its
    newest verifiable snapshot (bit-identical to the uninterrupted run).
``table``
    Regenerate Table 3, 5 or 6.
``figure``
    Regenerate one of Figures 10-14.
``telemetry``
    Render a report (spans, op-FLOP table, loss/F1 curves) from a
    telemetry JSONL file produced by ``match --telemetry``.
``obs``
    Serving observability tools; ``obs top`` renders the live terminal
    dashboard (queue depth, latency quantiles, error budget, slowest
    traces) from a ``/metrics`` endpoint (``--url``) or the
    deterministic virtual-clock demo (``--demo``).
``lint``
    Run the repo-specific static analysis rules over source paths
    (``--strict`` insists on the full catalog, concurrency rules
    included).
``audit``
    Report gradcheck/test coverage of Tensor ops and Module subclasses.
``races``
    Run the seeded schedule-exploration race scenarios under the
    runtime lockset detector; the ``fixture`` scenario must report its
    injected race, the production scenarios must run clean.
``check``
    Umbrella gate: strict lint + strict audit + race scenarios.
``dedupe``
    Deduplicate a record collection end to end: block with a chosen
    blocker, score candidates with the classical-similarity engine,
    cluster matches into stable entity ids and write the cluster
    artifact.
``bench``
    Run a benchmark suite; ``bench perf`` measures serial vs. fast
    ``match_many`` throughput and writes ``BENCH_perf.json``;
    ``bench serve`` replays seeded load through the micro-batching
    match service and writes ``BENCH_serve.json``;
    ``bench resilient`` measures availability under seeded chaos
    (naive client vs the fault-tolerance tier) and the tier's
    chaos-off overhead, writing ``BENCH_resilient.json``;
    ``bench blocking`` measures blocking recall vs. reduction on
    generated catalogs under an enforced 100k-scale gate, writing
    ``BENCH_blocking.json``.  Every suite writes through
    :mod:`repro.perf.harness` and prints the report's summary.
"""

from __future__ import annotations

import argparse
import sys

from .data import benchmark_names, load_benchmark, save_dataset, \
    split_dataset
from .utils import child_rng

__all__ = ["main", "build_parser"]


def _scenario_names() -> tuple[str, ...]:
    from .analysis.concurrency import SCENARIO_NAMES
    return SCENARIO_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Entity matching with transformer architectures "
                    "(EDBT 2020) — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="print Table 3 statistics")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("generate", help="write a benchmark to CSV")
    p.add_argument("name", choices=benchmark_names())
    p.add_argument("output")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--variant", choices=["clean", "dirty", "textual"],
                   default=None)

    p = sub.add_parser("pretrain", help="build a model-zoo checkpoint")
    p.add_argument("arch", choices=["bert", "roberta", "distilbert",
                                    "xlnet"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("match", help="fine-tune and evaluate on a benchmark")
    p.add_argument("arch", choices=["bert", "roberta", "distilbert",
                                    "xlnet"])
    p.add_argument("dataset", choices=benchmark_names())
    p.add_argument("--scale", type=float, default=0.08)
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="write a JSONL telemetry event stream to PATH "
                        "(render it with `repro telemetry PATH`)")
    p.add_argument("--zoo-dir", default=None,
                   help="model-zoo cache directory (default: "
                        "REPRO_ZOO_DIR or ~/.cache/repro/zoo)")
    p.add_argument("--smoke", action="store_true",
                   help="use a tiny pre-training scale (CI smoke checks; "
                        "accuracy is meaningless at this scale)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="snapshot full training state into this directory "
                        "(enables crash recovery and `repro resume`)")
    p.add_argument("--checkpoint-every", type=int, default=25,
                   help="snapshot every N optimizer steps "
                        "(0 = epoch boundaries only)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest snapshot in "
                        "--checkpoint-dir instead of starting fresh")
    p.add_argument("--cascade", action="store_true",
                   help="run the confidence cascade: a DistilBERT "
                        "primary screens every pair and only ambiguous "
                        "ones escalate to ARCH (the band is calibrated "
                        "on the validation split to preserve F1)")

    p = sub.add_parser("resume",
                       help="continue an interrupted `match "
                            "--checkpoint-dir` run")
    p.add_argument("checkpoint_dir",
                   help="directory previously passed to "
                        "`match --checkpoint-dir`")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="write a JSONL telemetry event stream to PATH")
    p.add_argument("--zoo-dir", default=None,
                   help="model-zoo cache directory (default: "
                        "REPRO_ZOO_DIR or ~/.cache/repro/zoo)")

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=[3, 5, 6])

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int, choices=[10, 11, 12, 13, 14])

    p = sub.add_parser("telemetry",
                       help="render a report from a telemetry JSONL file")
    p.add_argument("jsonl", help="path to a run's .jsonl event stream")

    p = sub.add_parser("obs", help="serving observability tools")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    t = obs_sub.add_parser(
        "top", help="terminal dashboard: queue depth, latency "
                    "quantiles, error budget, slowest traces")
    t.add_argument("--url", default=None,
                   help="scrape a MetricsHTTPServer, e.g. "
                        "http://127.0.0.1:9100")
    t.add_argument("--demo", action="store_true",
                   help="render the deterministic virtual-clock demo "
                        "workload instead of scraping")
    t.add_argument("--interval", type=float, default=2.0,
                   help="seconds between live redraws (default 2)")
    t.add_argument("--iterations", type=int, default=None,
                   help="render N frames then exit (default: loop on a "
                        "TTY, one snapshot otherwise)")
    t.add_argument("--snapshot", action="store_true",
                   help="force one-shot snapshot mode even on a TTY")

    p = sub.add_parser("lint", help="run the autodiff-aware linter")
    p.add_argument("paths", nargs="+",
                   help="files or directories to lint (e.g. src/)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run (e.g. "
                        "RA101,RA102); default: all")
    p.add_argument("--strict", action="store_true",
                   help="run the full rule catalog (incompatible with "
                        "--rules); the repo-wide self-lint gate")

    p = sub.add_parser("races",
                       help="run the lockset race-detection scenarios "
                            "under a seeded schedule explorer")
    p.add_argument("--seed", type=int, default=7,
                   help="schedule-exploration seed (default 7)")
    p.add_argument("--scenario", choices=sorted(_scenario_names()),
                   default=None,
                   help="run one scenario instead of the whole suite")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("check",
                       help="umbrella gate: strict lint + strict audit "
                            "+ race scenarios")
    p.add_argument("--tests", default="tests",
                   help="test-suite directory for the audit step")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for the race scenarios")

    p = sub.add_parser("audit",
                       help="report test coverage of Tensor ops and "
                            "Module subclasses")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--tests", default="tests",
                   help="test-suite directory to cross-reference")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero if any op or module is uncovered")

    p = sub.add_parser("dedupe",
                       help="deduplicate a generated catalog end to end")
    p.add_argument("--records", type=int, default=5000,
                   help="generated catalog size (default 5000)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--blocker", default="minhash",
                   choices=["token", "sorted", "tfidf", "minhash"],
                   help="candidate generator (default minhash)")
    p.add_argument("--scorer", default="jaccard",
                   choices=["jaccard", "blend"],
                   help="similarity scorer: jaccard (fast) or blend "
                        "(jaccard+jaro-winkler+levenshtein)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="match probability cut (default 0.5)")
    p.add_argument("--candidate-batch", type=int, default=2048,
                   help="blocker emission batch size (default 2048)")
    p.add_argument("--output", default="clusters.json",
                   help="cluster artifact path (default clusters.json)")

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("suite", choices=["perf", "serve", "resilient",
                                      "blocking"],
                   help="perf: serial vs. fast match_many throughput; "
                        "serve: micro-batching service throughput/latency "
                        "under load; resilient: availability under seeded "
                        "chaos plus the fault-tolerance tier's chaos-off "
                        "overhead; blocking: recall vs. reduction of the "
                        "blocker family on generated catalogs")
    p.add_argument("--smoke", action="store_true",
                   help="few pairs, no acceptance enforcement (CI)")
    p.add_argument("--pairs", type=int, default=200,
                   help="number of record pairs to match (default 200)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="inference batch size (default: 64 for the "
                        "perf suite, 32 otherwise)")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: 7 for the blocking "
                        "suite, 0 otherwise)")
    p.add_argument("--arch", default=None,
                   choices=["bert", "roberta", "distilbert", "xlnet"],
                   help="architecture (default: all four for perf, bert "
                        "for serve and resilient)")
    p.add_argument("--max-wait-ms", type=float, default=10.0,
                   help="serve suites: micro-batcher flush horizon "
                        "(default 10 ms)")
    p.add_argument("--requests", type=int, default=1000,
                   help="resilient suite: chaos-phase request count "
                        "(default 1000)")
    p.add_argument("--records", type=int, default=100_000,
                   help="blocking suite: gate-scale catalog size "
                        "(default 100000)")
    p.add_argument("--output", default=None,
                   help="report path (default: BENCH_<suite>.json)")
    p.add_argument("--zoo-dir", default=None,
                   help="model-zoo cache directory (default: "
                        "REPRO_ZOO_DIR or ~/.cache/repro/zoo)")

    return parser


def _cmd_datasets(args) -> int:
    from .evaluation import table3
    print(table3(scale=args.scale, seed=args.seed))
    return 0


def _cmd_generate(args) -> int:
    dataset = load_benchmark(args.name, seed=args.seed, scale=args.scale,
                             variant=args.variant)
    save_dataset(dataset, args.output)
    stats = dataset.stats()
    print(f"wrote {stats.size} pairs ({stats.num_matches} matches) "
          f"to {args.output}")
    return 0


def _cmd_pretrain(args) -> int:
    from .pretraining import get_pretrained
    model = get_pretrained(args.arch, seed=args.seed,
                           force_retrain=args.force, log=print)
    source = "cache" if model.from_cache else "fresh pre-training"
    print(f"{args.arch}: {model.backbone.num_parameters():,} parameters "
          f"({source})")
    return 0


def _smoke_zoo_settings():
    from .pretraining import ZooSettings
    return ZooSettings(base_steps=25, base_examples=150,
                       tokenizer_sentences=150, vocab_size=220,
                       d_model=32, num_layers=2, num_heads=2,
                       max_position=64, seq_len=32)


def _run_match(arch: str, dataset: str, scale: float, epochs: int,
               seed: int, smoke: bool, zoo_dir, telemetry,
               checkpoint_dir=None, checkpoint_every: int = 25,
               resume: bool = False) -> int:
    from .matching import EntityMatcher, FineTuneConfig
    data = load_benchmark(dataset, seed=seed, scale=scale)
    splits = split_dataset(data, child_rng(seed, "split"))
    matcher = EntityMatcher(
        arch, finetune_config=FineTuneConfig(epochs=epochs),
        zoo_settings=_smoke_zoo_settings() if smoke else None,
        zoo_dir=zoo_dir)

    from .obs import LoggingCallback
    run = None
    callbacks = [LoggingCallback(print)]
    if telemetry:
        from .obs import JsonlSink, TelemetryCallback, TelemetryRun
        run = TelemetryRun(JsonlSink(telemetry),
                           run_id=f"match-{arch}-{dataset}")
        run.emit("run_begin", command="match", arch=arch,
                 dataset=dataset, scale=scale,
                 epochs=epochs, seed=seed, smoke=smoke)
        callbacks.append(TelemetryCallback(run))

    resilience = None
    if checkpoint_dir:
        from .resilience import ResilienceConfig
        resilience = ResilienceConfig(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
            run_context={"command": "match", "arch": arch,
                         "dataset": dataset, "scale": scale,
                         "epochs": epochs, "seed": seed, "smoke": smoke})

    matcher.fit(splits.train, splits.test, callbacks=callbacks,
                resilience=resilience)
    metrics = matcher.evaluate(splits.test).as_percent()
    print(f"\n{arch} on {data.name}: F1 {metrics.f1:.1f} "
          f"(P {metrics.precision:.1f} / R {metrics.recall:.1f})")
    if run is not None:
        run.close()
        print(f"telemetry written to {telemetry}")
    return 0


def _cmd_match(args) -> int:
    if args.cascade:
        return _run_cascade(args)
    return _run_match(args.arch, args.dataset, args.scale, args.epochs,
                      args.seed, args.smoke, args.zoo_dir, args.telemetry,
                      checkpoint_dir=args.checkpoint_dir,
                      checkpoint_every=args.checkpoint_every,
                      resume=args.resume)


def _run_cascade(args) -> int:
    """``match --cascade``: DistilBERT screens, ARCH confirms."""
    from .matching import EntityMatcher, FineTuneConfig, build_cascade, \
        evaluate_predictions
    from .obs import LoggingCallback
    if args.arch == "distilbert":
        print("error: --cascade escalates from a DistilBERT primary; "
              "pick a stronger secondary (roberta, bert or xlnet)",
              file=sys.stderr)
        return 2
    data = load_benchmark(args.dataset, seed=args.seed, scale=args.scale)
    splits = split_dataset(data, child_rng(args.seed, "split"))
    settings = _smoke_zoo_settings() if args.smoke else None

    def fitted(arch: str) -> EntityMatcher:
        print(f"fine-tuning {arch}:")
        matcher = EntityMatcher(
            arch, finetune_config=FineTuneConfig(epochs=args.epochs),
            zoo_settings=settings, zoo_dir=args.zoo_dir)
        matcher.fit(splits.train, splits.validation,
                    callbacks=LoggingCallback(print))
        return matcher

    primary = fitted("distilbert")
    secondary = fitted(args.arch)
    cascade = build_cascade(primary, secondary, splits.validation)
    band = cascade.calibration
    test_pairs = [(p.record_a, p.record_b) for p in splits.test.pairs]
    outcomes = cascade.score_pairs(test_pairs)
    f1 = evaluate_predictions(
        splits.test.labels(), [o.matched for o in outcomes]).f1
    print(f"\ncascade distilbert -> {args.arch} on {data.name}: "
          f"F1 {f1 * 100.0:.1f}, band [{band.lo:.3f}, {band.hi:.3f}] "
          f"(validation escalation {band.escalation_rate * 100.0:.1f}%), "
          f"test escalation "
          f"{cascade.last_escalation_rate() * 100.0:.1f}%")
    return 0


def _cmd_resume(args) -> int:
    from .nn import CheckpointError
    from .resilience import CheckpointManager
    manager = CheckpointManager(args.checkpoint_dir)
    if not manager.has_snapshot():
        print(f"error: no snapshots in {args.checkpoint_dir}",
              file=sys.stderr)
        return 1
    try:
        _, meta, path = manager.load_latest()
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    context = meta.get("run") or {}
    if context.get("command") != "match":
        print(f"error: {path} was not written by `repro match "
              f"--checkpoint-dir` (no run context); re-run the original "
              f"command with --resume instead", file=sys.stderr)
        return 1
    print(f"resuming {context['arch']} on {context['dataset']} from "
          f"{path.name} (step {meta.get('step', '?')})")
    return _run_match(context["arch"], context["dataset"],
                      float(context["scale"]), int(context["epochs"]),
                      int(context["seed"]), bool(context.get("smoke")),
                      args.zoo_dir, args.telemetry,
                      checkpoint_dir=args.checkpoint_dir,
                      resume=True)


def _cmd_table(args) -> int:
    from .evaluation import table3, table5, table6
    if args.number == 3:
        print(table3())
    elif args.number == 5:
        _, rendered = table5()
        print(rendered)
    else:
        _, rendered = table6()
        print(rendered)
    return 0


def _cmd_figure(args) -> int:
    from .evaluation import figure
    print(figure(args.number).rendered())
    return 0


def _cmd_telemetry(args) -> int:
    import json
    from .obs import load_report
    try:
        print(load_report(args.jsonl))
    except FileNotFoundError:
        print(f"error: no such telemetry file: {args.jsonl}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.jsonl} is not JSONL telemetry "
              f"(line {exc.lineno}: {exc.msg})", file=sys.stderr)
        return 1
    return 0


def _cmd_obs(args) -> int:
    from .obs.top import demo_state, gather_url, run_top
    if args.url and args.demo:
        print("error: --url and --demo are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.url:
        url = args.url

        def gather():
            return gather_url(url)
    elif args.demo:
        gather = demo_state
    else:
        print("error: choose a source: --demo or --url URL",
              file=sys.stderr)
        return 2
    try:
        return run_top(gather, interval=args.interval,
                       iterations=args.iterations,
                       live=False if args.snapshot else None)
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


def _cmd_lint(args) -> int:
    from .analysis import available_rules, format_json, format_text, \
        lint_paths
    if getattr(args, "strict", False) and args.rules:
        print("error: --strict runs the full catalog; drop --rules",
              file=sys.stderr)
        return 2
    rules = None
    if args.rules:
        wanted = {r.strip().upper() for r in args.rules.split(",")}
        rules = [r for r in available_rules() if r.id in wanted]
        unknown = wanted - {r.id for r in rules}
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    violations = lint_paths(args.paths, rules=rules)
    renderer = format_json if args.format == "json" else format_text
    print(renderer(violations))
    return 1 if violations else 0


def _cmd_races(args) -> int:
    import json
    from .analysis.concurrency import run_races
    names = [args.scenario] if args.scenario else None
    result = run_races(seed=args.seed, scenarios=names)
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for name, entry in result["scenarios"].items():
            status = "ok" if entry["passed"] else "FAIL"
            expected = ("race expected"
                        if entry["expect_race"] else "must run clean")
            print(f"[{status}] {name} ({expected}; seed {result['seed']})")
            for report in entry["races"]:
                print(f"    {report}")
    return 0 if result["passed"] else 1


def _cmd_check(args) -> int:
    """Umbrella gate: strict lint, strict audit, race scenarios."""
    from pathlib import Path
    failures = []
    lint_args = argparse.Namespace(
        paths=[str(Path(__file__).resolve().parent)], format="text",
        rules=None, strict=True)
    print("== lint --strict ==")
    if _cmd_lint(lint_args):
        failures.append("lint")
    print("== audit --strict ==")
    audit_args = argparse.Namespace(format="text", tests=args.tests,
                                    strict=True)
    if _cmd_audit(audit_args):
        failures.append("audit")
    print("== races ==")
    races_args = argparse.Namespace(seed=args.seed, scenario=None,
                                    format="text")
    if _cmd_races(races_args):
        failures.append("races")
    if failures:
        print(f"check failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("check passed: lint, audit, races")
    return 0


def _cmd_audit(args) -> int:
    from .analysis import audit_coverage
    report = audit_coverage(tests_root=args.tests)
    print(report.as_json() if args.format == "json" else report.as_text())
    if args.strict and not report.is_complete():
        return 1
    return 0


def _cmd_dedupe(args) -> int:
    from .data.blocking import (MinHashLSHBlocker,
                                SortedNeighborhoodBlocker, TfIdfBlocker,
                                TokenBlocker)
    from .dedupe import (DedupeConfig, SimilarityEngine, dedupe_records,
                         generate_catalog, write_clusters)
    blockers = {
        "token": lambda: TokenBlocker(max_token_frequency=0.05),
        "sorted": lambda: SortedNeighborhoodBlocker("title", window=10),
        "tfidf": lambda: TfIdfBlocker(top_k=10, threshold=0.2),
        "minhash": lambda: MinHashLSHBlocker(seed=args.seed),
    }
    catalog = generate_catalog(args.records, seed=args.seed)
    result = dedupe_records(
        catalog.records, blockers[args.blocker](),
        SimilarityEngine(scorer=args.scorer),
        DedupeConfig(threshold=args.threshold,
                     candidate_batch=args.candidate_batch))
    write_clusters(args.output, result)
    print(f"{result.num_records} records -> {result.num_entities} "
          f"entities ({result.num_candidates} candidates scored, "
          f"{result.num_matches} matches, gold "
          f"{catalog.meta['num_entities']} entities)")
    print(f"clusters written to {args.output}")
    return 0


def _run_bench_suite(args) -> dict:
    if args.suite == "blocking":
        from .dedupe.bench import run_blocking_benchmark
        return run_blocking_benchmark(
            num_records=args.records,
            seed=7 if args.seed is None else args.seed, smoke=args.smoke)
    common = {"num_pairs": args.pairs,
              "seed": 0 if args.seed is None else args.seed,
              "zoo_dir": args.zoo_dir, "smoke": args.smoke}
    if args.suite == "perf":
        from .perf.bench import DEFAULT_ARCHS, run_perf_benchmark
        return run_perf_benchmark(
            archs=(args.arch,) if args.arch else DEFAULT_ARCHS,
            batch_size=args.batch_size or 64, **common)
    # The serve suites were tuned (and their floors measured) at 32.
    serve = {"arch": args.arch or "bert",
             "batch_size": args.batch_size or 32,
             "max_wait_ms": args.max_wait_ms, **common}
    if args.suite == "serve":
        from .serve.bench import run_serve_benchmark
        return run_serve_benchmark(**serve)
    from .serve.bench_resilient import run_resilient_benchmark
    return run_resilient_benchmark(num_requests=args.requests, **serve)


def _cmd_bench(args) -> int:
    from .perf.harness import failed_gates, write_report
    report = _run_bench_suite(args)
    try:
        path = write_report(report,
                            args.output or f"BENCH_{args.suite}.json")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report["summary"]))
    print(f"report written to {path}")
    failed = failed_gates(report)
    if report["acceptance"]["enforced"] and failed:
        print(f"error: {args.suite} acceptance failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "pretrain": _cmd_pretrain,
    "match": _cmd_match,
    "resume": _cmd_resume,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "telemetry": _cmd_telemetry,
    "obs": _cmd_obs,
    "lint": _cmd_lint,
    "races": _cmd_races,
    "check": _cmd_check,
    "audit": _cmd_audit,
    "dedupe": _cmd_dedupe,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
