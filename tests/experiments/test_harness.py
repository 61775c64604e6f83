"""Tests for the experiment runner, tables, curves and scale resolution."""

import numpy as np
import pytest

from repro.datasets import load
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    collect_curves,
    current_scale,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    run_experiment,
)
from repro.experiments.curves import render_curve
from repro.experiments.reference import PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5
from repro.experiments.runner import RunResult
from repro.experiments.tables import f1_averages
from repro.metrics import ClassificationReport
from repro.models import ModelConfig

TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8)


@pytest.fixture(scope="module")
def pair():
    return load("hospital", n_rows=50, seed=4)


@pytest.fixture(scope="module")
def result(pair):
    return run_experiment(pair, "etsb", n_runs=2,
                          n_label_tuples=6, epochs=4, model_config=TINY,
                          track_curves=True)


def fake_result(system: str, dataset: str, f1s: list[float]) -> ExperimentResult:
    runs = []
    for seed, f1 in enumerate(f1s):
        # Equal precision and recall make F1 exactly tp/100.
        tp = int(round(100 * f1))
        fp = 100 - tp
        report = ClassificationReport.from_predictions(
            [1] * 100 + [0] * 100,
            [1] * tp + [0] * (100 - tp) + [1] * fp + [0] * (100 - fp))
        runs.append(RunResult(seed=seed, report=report, train_seconds=1.0,
                              best_epoch=0))
    return ExperimentResult(dataset=dataset, system=system, runs=tuple(runs))


class TestRunner:
    def test_repeated_runs_recorded(self, result):
        assert len(result.runs) == 2
        assert result.system == "ETSB-RNN"
        assert result.dataset == "hospital"

    def test_seeds_increment(self, result):
        assert [run.seed for run in result.runs] == [0, 1]

    def test_summaries_available(self, result):
        assert 0.0 <= result.f1.mean <= 1.0
        assert result.train_seconds.mean > 0
        assert result.precision.n == 2

    def test_as_row_keys(self, result):
        row = result.as_row()
        assert set(row) == {"P", "P_sd", "R", "R_sd", "F1", "F1_sd",
                            "seconds", "seconds_sd"}

    def test_curves_tracked(self, result):
        for run in result.runs:
            assert len(run.test_accuracy_curve) == 4
            assert len(run.train_accuracy_curve) == 4

    def test_invalid_n_runs(self, pair):
        with pytest.raises(ExperimentError):
            run_experiment(pair, n_runs=0)

    def test_raha_baseline_runs(self, pair):
        result = run_experiment(pair, "raha", n_runs=2, n_label_tuples=6)
        assert result.system == "Raha (ours)"
        assert len(result.runs) == 2
        assert 0.0 <= result.f1.mean <= 1.0


class TestCurves:
    def test_collect_curves(self, result):
        curves = collect_curves(result)
        assert len(curves.test) == 4
        assert len(curves.train) == 4
        assert len(curves.best_epochs) == 2
        for point in curves.test:
            assert point.ci_low <= point.mean <= point.ci_high

    def test_series_extraction(self, result):
        curves = collect_curves(result)
        series = curves.as_series("test")
        assert [epoch for epoch, _ in series] == [0, 1, 2, 3]
        assert curves.final_test_accuracy() == series[-1][1]

    def test_untracked_experiment_rejected(self, pair):
        bare = run_experiment(pair, n_runs=1, n_label_tuples=6, epochs=2,
                              model_config=TINY)
        with pytest.raises(ExperimentError):
            collect_curves(bare)

    def test_render_curve_text(self, result):
        text = render_curve(collect_curves(result))
        assert "acc" in text


class TestTables:
    def test_table2(self):
        pairs = [load("hospital", n_rows=40, seed=0),
                 load("beers", n_rows=40, seed=0)]
        table, text = render_table2(pairs)
        assert table.n_rows == 2
        assert "hospital" in text
        assert "Error Rate" in text

    def test_table3_includes_paper_and_measured(self, result):
        table, text = render_table3([result])
        assert "Raha (paper)" in text
        assert "ETSB-RNN (measured)" in text
        assert "hospital/F1" in text

    def test_table3_duplicate_results_rejected(self, result):
        with pytest.raises(ExperimentError):
            render_table3([result, result])

    def test_table4_averages(self):
        results = [
            fake_result("X", "beers", [0.9]),
            fake_result("X", "flights", [0.5]),
            fake_result("X", "hospital", [0.7]),
        ]
        averages = f1_averages(results)["X"]
        assert averages["avg_wo"] == pytest.approx(0.8, abs=0.01)
        assert averages["avg_w"] == pytest.approx(0.7, abs=0.01)

    def test_table4_render(self, result):
        table, text = render_table4([result])
        assert "ETSB-RNN (paper)" in text
        assert "AVG w/o Flights" in text

    def test_table5_render(self, result):
        table, text = render_table5([result])
        assert "hospital" in text
        assert "AVG" in text
        assert "ETSB measured [s]" in text


class TestReferenceNumbers:
    def test_table3_headline_values(self):
        assert PAPER_TABLE3["ETSB-RNN"]["hospital"].f1 == 0.97
        assert PAPER_TABLE3["ETSB-RNN"]["flights"].f1 == 0.74
        assert PAPER_TABLE3["Raha"]["beers"].f1 == 0.99
        assert PAPER_TABLE3["Rotom"]["flights"].f1 is None

    def test_table4_values(self):
        assert PAPER_TABLE4["ETSB-RNN"]["avg_wo"] == 0.91
        assert PAPER_TABLE4["Rotom"]["avg_w"] is None

    def test_table5_values(self):
        assert PAPER_TABLE5["movies"]["etsb_avg"] == 312

    def test_etsb_beats_tsb_everywhere_in_paper(self):
        """The paper's claim: ETSB >= TSB on every dataset."""
        for dataset in PAPER_TABLE3["TSB-RNN"]:
            tsb = PAPER_TABLE3["TSB-RNN"][dataset].f1
            etsb = PAPER_TABLE3["ETSB-RNN"][dataset].f1
            assert etsb >= tsb


class TestScale:
    def test_scaled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        scale = current_scale()
        assert not scale.full
        assert scale.n_label_tuples == 20
        assert scale.dataset_rows("tax") <= 300

    def test_full_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        scale = current_scale()
        assert scale.full
        assert scale.epochs == 120
        assert scale.n_runs == 10
        assert scale.dataset_rows("tax") == 200_000

    def test_scaled_rows_never_exceed_paper(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        scale = current_scale()
        from repro.datasets import dataset_spec
        for name in ("beers", "flights", "hospital", "movies", "rayyan", "tax"):
            assert scale.dataset_rows(name) <= dataset_spec(name).paper_rows
