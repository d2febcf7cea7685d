"""CLI: argument parsing and the filesystem-facing commands."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"
        assert args.scale == 1.0

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "abt-buy", "out.csv", "--scale", "0.1",
             "--variant", "clean"])
        assert args.name == "abt-buy"
        assert args.variant == "clean"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "nope", "out.csv"])

    def test_match_args(self):
        args = build_parser().parse_args(
            ["match", "roberta", "dblp-acm", "--epochs", "2"])
        assert args.arch == "roberta"
        assert args.epochs == 2
        assert args.cascade is False

    def test_match_cascade_flag(self):
        args = build_parser().parse_args(
            ["match", "roberta", "dblp-acm", "--cascade"])
        assert args.cascade is True

    def test_bench_batch_size_defaults_by_suite(self):
        args = build_parser().parse_args(["bench", "perf"])
        assert args.batch_size is None  # resolved per-suite at runtime

    def test_bench_arch_resolved_per_suite_and_no_alias(self):
        assert build_parser().parse_args(["bench", "perf"]).arch is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench"])

    def test_bench_blocking_args(self):
        args = build_parser().parse_args(
            ["bench", "blocking", "--smoke", "--records", "5000"])
        assert args.suite == "blocking"
        assert args.smoke is True
        assert args.records == 5000

    def test_dedupe_args(self):
        args = build_parser().parse_args(
            ["dedupe", "--records", "500", "--blocker", "tfidf",
             "--scorer", "blend", "--threshold", "0.6",
             "--output", "out.json"])
        assert args.records == 500
        assert args.blocker == "tfidf"
        assert args.scorer == "blend"
        assert args.threshold == 0.6

    def test_dedupe_blocker_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dedupe", "--blocker", "lsh2"])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "4"])

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_lint_args(self):
        args = build_parser().parse_args(
            ["lint", "src/", "--format", "json", "--rules", "RA101,RA108"])
        assert args.command == "lint"
        assert args.paths == ["src/"]
        assert args.format == "json"
        assert args.rules == "RA101,RA108"

    def test_lint_requires_paths(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint"])

    def test_lint_format_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "src/", "--format", "xml"])

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.command == "audit"
        assert args.format == "text"
        assert args.tests == "tests"
        assert not args.strict

    def test_audit_strict_flag(self):
        args = build_parser().parse_args(["audit", "--strict",
                                          "--format", "json"])
        assert args.strict
        assert args.format == "json"


class TestCommands:
    def test_datasets_prints_table(self, capsys):
        assert main(["datasets", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "abt-buy" in out
        assert "dblp-scholar" in out

    def test_generate_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "data.csv"
        assert main(["generate", "itunes-amazon", str(output),
                     "--scale", "0.05"]) == 0
        assert output.exists()
        assert "matches" in capsys.readouterr().out
        from repro.data import load_dataset
        loaded = load_dataset(output)
        assert len(loaded) > 0

    def test_dedupe_writes_clusters(self, tmp_path, capsys):
        output = tmp_path / "clusters.json"
        assert main(["dedupe", "--records", "300",
                     "--output", str(output)]) == 0
        assert "entities" in capsys.readouterr().out
        from repro.dedupe import load_clusters
        payload = load_clusters(output)
        assert payload["num_records"] == 300

    def test_bench_blocking_smoke(self, tmp_path, capsys):
        output = tmp_path / "BENCH_blocking.json"
        assert main(["bench", "blocking", "--smoke",
                     "--output", str(output)]) == 0
        assert "report written" in capsys.readouterr().out
        import json
        report = json.loads(output.read_text())
        assert report["benchmark"] == "blocking"
        assert report["config"]["seed"] == 7
        assert report["acceptance"]["enforced"] is False
