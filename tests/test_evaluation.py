"""Evaluation harness: experiment runner, tables, figures, convergence,
ablations, rendering utilities."""

import numpy as np
import pytest

from repro.evaluation import (ALL_ARCHS, ALL_DATASETS, CellResult,
                              ExperimentScale, FIGURE_DATASETS,
                              PAPER_TABLE5, analyze_convergence, figure,
                              run_baseline_cell, run_transformer_cell,
                              table3)
from repro.utils import child_rng, format_duration, format_series, \
    format_table, spawn_seeds


def _smoke_scale(tiny_settings, tiny_zoo_dir) -> ExperimentScale:
    return ExperimentScale(dataset_scale=0.03, epochs=1, runs=1,
                           max_length_cap=32,
                           zoo_settings=tiny_settings,
                           zoo_dir=str(tiny_zoo_dir))


class TestExperimentScale:
    def test_paper_scale_full_protocol(self):
        paper = ExperimentScale.paper()
        assert paper.dataset_scale == 1.0
        assert paper.epochs == 15
        assert paper.runs == 5

    def test_bench_scale_reduced(self):
        bench = ExperimentScale.bench()
        assert bench.dataset_scale < 1.0
        assert bench.runs >= 1
        assert bench.cache_dir is not None

    def test_bench_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        monkeypatch.setenv("REPRO_BENCH_EPOCHS", "9")
        bench = ExperimentScale.bench()
        assert bench.dataset_scale == 0.5
        assert bench.epochs == 9

    def test_cell_key_depends_on_protocol(self):
        a = ExperimentScale(dataset_scale=0.1)
        b = ExperimentScale(dataset_scale=0.2)
        assert a.cell_key("bert", "abt-buy") != b.cell_key("bert", "abt-buy")
        assert (a.cell_key("bert", "abt-buy")
                == ExperimentScale(dataset_scale=0.1).cell_key(
                    "bert", "abt-buy"))

    def test_constants(self):
        assert set(ALL_ARCHS) == {"bert", "xlnet", "roberta", "distilbert"}
        assert len(ALL_DATASETS) == 5
        assert set(FIGURE_DATASETS.values()) == set(ALL_DATASETS)
        assert set(PAPER_TABLE5) == set(ALL_DATASETS)


class TestCellResult:
    def test_mean_curve_averages_runs(self):
        cell = CellResult("bert", "abt-buy",
                          f1_curves=[[0.0, 10.0], [0.0, 30.0]])
        assert cell.mean_curve == [0.0, 20.0]
        assert cell.best_f1 == 20.0
        assert cell.final_f1 == 20.0

    def test_inconsistent_curves_raise(self):
        cell = CellResult("bert", "abt-buy",
                          f1_curves=[[0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            cell.mean_curve


class TestRunners:
    def test_transformer_cell(self, tiny_settings, tiny_zoo_dir):
        scale = _smoke_scale(tiny_settings, tiny_zoo_dir)
        cell = run_transformer_cell("bert", "dblp-acm", scale)
        assert cell.arch == "bert"
        assert len(cell.f1_curves) == 1
        assert len(cell.mean_curve) == 2     # zero-shot + 1 epoch
        assert cell.mean_epoch_seconds > 0

    def test_baseline_cell(self, tiny_settings, tiny_zoo_dir):
        scale = ExperimentScale(dataset_scale=0.03, epochs=1, runs=1,
                                zoo_settings=tiny_settings,
                                zoo_dir=str(tiny_zoo_dir))
        result = run_baseline_cell("dblp-acm", scale)
        assert 0.0 <= result.magellan_f1 <= 100.0
        assert 0.0 <= result.deepmatcher_f1 <= 100.0
        assert result.deepmatcher_epoch_seconds > 0


class TestTables:
    def test_table3_contains_all_datasets(self):
        rendered = table3(scale=0.02)
        for name in ALL_DATASETS:
            assert name in rendered
        assert "Size" in rendered


class TestFigures:
    def test_figure_smoke(self, tiny_settings, tiny_zoo_dir):
        scale = _smoke_scale(tiny_settings, tiny_zoo_dir)
        result = figure(13, scale, archs=("bert",))
        assert result.dataset == "dblp-acm"
        assert "bert" in result.curves
        assert "Figure 13" in result.rendered()

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            figure(1)


class TestConvergence:
    def test_fast_convergence_detected(self):
        cell = CellResult("bert", "d",
                          f1_curves=[[10.0, 88.0, 90.0, 91.0, 90.0]])
        summary = analyze_convergence(cell)
        assert summary.zero_shot_f1 == 10.0
        assert summary.peak_f1 == 91.0
        assert summary.epochs_to_within_5pct == 1
        assert summary.convergence_epoch == 1
        assert summary.holds_one_epoch_claim()

    def test_slow_convergence(self):
        cell = CellResult("bert", "d",
                          f1_curves=[[0.0, 10.0, 40.0, 85.0, 90.0, 90.0]])
        summary = analyze_convergence(cell)
        assert summary.epochs_to_within_5pct == 3
        assert not summary.holds_one_epoch_claim()

    def test_never_converges(self):
        cell = CellResult("bert", "d",
                          f1_curves=[[0.0, 50.0, 10.0, 60.0]])
        summary = analyze_convergence(cell, stability_window=2)
        assert summary.convergence_epoch is None


class TestUtils:
    def test_format_duration_styles(self):
        assert format_duration(0.5) == "500ms"
        assert format_duration(5.25) == "5.2s"
        assert format_duration(162) == "2m 42s"

    def test_format_table_alignment(self):
        out = format_table(["a", "bbbb"], [["x", 1], ["yy", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        assert format_series("bert", [1.234, 5.0]) == "bert: 1.2 5.0"

    def test_child_rng_independent_streams(self):
        a = child_rng(0, "x").normal(size=3)
        b = child_rng(0, "y").normal(size=3)
        c = child_rng(0, "x").normal(size=3)
        assert not np.allclose(a, b)
        assert np.allclose(a, c)

    def test_child_rng_int_scope(self):
        a = child_rng(0, 1).normal()
        b = child_rng(0, 2).normal()
        assert a != b

    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(5, 3) == spawn_seeds(5, 3)
        assert len(set(spawn_seeds(5, 10))) == 10
