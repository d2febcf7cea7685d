"""Examples and benchmark modules: syntax-valid, documented, well-formed.

Executing the examples needs the full model zoo (minutes of CPU), so the
test suite checks everything short of that: each script compiles, has a
module docstring and a main() guard, and each benchmark module targets a
real table/figure via the shared helpers.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_with_docstring_and_main(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
    has_main_guard = any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body)
    assert has_main_guard, f"{path.name} lacks a __main__ guard"
    functions = [n.name for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef)]
    assert "main" in functions


def test_at_least_three_examples_exist():
    assert len(EXAMPLES) >= 3
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_module_well_formed(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
    test_functions = [n.name for n in tree.body
                      if isinstance(n, ast.FunctionDef)
                      and n.name.startswith("test_")]
    assert test_functions, f"{path.name} has no test function"
    source = path.read_text()
    assert "benchmark" in source
    assert "emit(" in source  # persists its rendered output


def test_every_paper_artifact_has_a_benchmark():
    names = {p.stem for p in BENCHMARKS}
    for expected in ("bench_table3_datasets", "bench_table5_comparison",
                     "bench_table6_training_time", "bench_figure10_abt_buy",
                     "bench_figure11_itunes_amazon",
                     "bench_figure12_walmart_amazon",
                     "bench_figure13_dblp_acm",
                     "bench_figure14_dblp_scholar", "bench_convergence",
                     "bench_ablations"):
        assert expected in names, expected


@pytest.mark.parametrize("suite, extra, check", [
    pytest.param("perf", ["--arch", "bert"],
                 lambda report, out: set(report["architectures"])
                 == {"bert"},
                 marks=pytest.mark.perf, id="perf"),
    pytest.param("resilient", [],
                 lambda report, out:
                 report["chaos"]["resilient"]["offered"] == 32,
                 marks=pytest.mark.resilient, id="resilient"),
    pytest.param("blocking", [],
                 lambda report, out: report["config"]["seed"] == 7,
                 marks=pytest.mark.blocking, id="blocking"),
])
def test_bench_cli_smoke(suite, extra, check, tiny_zoo_dir, tmp_path):
    """``python -m repro bench <suite> --smoke`` runs end to end, prints
    the report's summary and writes a schema-valid report."""
    from repro.perf.harness import check_report
    out = tmp_path / f"BENCH_{suite}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", suite, "--smoke",
         "--zoo-dir", str(tiny_zoo_dir), "--output", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert check_report(report) == []
    assert report["benchmark"] == suite
    assert report["smoke"] is True
    assert report["acceptance"]["enforced"] is False
    assert "\n".join(report["summary"]) in proc.stdout
    assert check(report, proc.stdout)


@pytest.mark.serve
def test_serve_bench_cli_smoke(tiny_zoo_dir, tmp_path):
    """``repro bench serve --smoke`` runs end to end and writes a
    schema-valid ``BENCH_serve.json`` (the one benchmark exercising the
    serving stack on the real clock)."""
    from repro.perf.harness import check_report
    out = tmp_path / "BENCH_serve.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "serve", "--smoke",
         "--zoo-dir", str(tiny_zoo_dir), "--output", str(out)],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert check_report(report) == []
    assert report["benchmark"] == "serve"
    assert report["smoke"] is True
    assert report["acceptance"]["enforced"] is False
    assert set(report["levels"]) == {"0.5x", "1x", "2x"}
    assert "\n".join(report["summary"]) in proc.stdout
    assert "serial baseline" in proc.stdout


def test_examples_import_only_public_api():
    """Examples should demonstrate the public API, not internals."""
    for path in EXAMPLES:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    parts = node.module.split(".")
                    # allow one level below the top packages
                    assert len(parts) <= 3, \
                        f"{path.name} imports deep internal {node.module}"
