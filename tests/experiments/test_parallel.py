"""Tests for the process-pool experiment runner.

The contract: parallel execution is a scheduling detail.  Every task
seeds itself from its arguments (``base_seed + run_index``), so the
aggregated :class:`ExperimentResult` is identical to the serial one in
everything except wall-clock timings.
"""

import numpy as np
import pytest

from repro.datasets import load
from repro.errors import ExperimentError
from repro.experiments import run_experiment, run_experiment_matrix
from repro.models import ModelConfig

TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8)

SETTINGS = dict(n_runs=2, n_label_tuples=6, epochs=2, model_config=TINY)


@pytest.fixture(scope="module")
def pair():
    return load("hospital", n_rows=40, seed=4)


def assert_same_runs(a, b):
    """Equal up to wall-clock seconds (the only nondeterministic field)."""
    assert len(a) == len(b)
    for run_a, run_b in zip(a, b):
        assert run_a.seed == run_b.seed
        assert run_a.report == run_b.report
        assert run_a.best_epoch == run_b.best_epoch
        assert run_a.train_accuracy_curve == run_b.train_accuracy_curve
        assert run_a.test_accuracy_curve == run_b.test_accuracy_curve


class TestParallelRunner:
    def test_parallel_reproduces_serial(self, pair):
        serial = run_experiment(pair, **SETTINGS)
        parallel = run_experiment(pair, **SETTINGS, n_workers=2)
        assert parallel.dataset == serial.dataset
        assert parallel.system == serial.system
        assert_same_runs(serial.runs, parallel.runs)
        row_s, row_p = serial.as_row(), parallel.as_row()
        for key in ("P", "P_sd", "R", "R_sd", "F1", "F1_sd"):
            assert row_s[key] == row_p[key]

    def test_single_worker_is_serial_path(self, pair):
        serial = run_experiment(pair, **SETTINGS)
        one = run_experiment(pair, **SETTINGS, n_workers=1)
        assert_same_runs(serial.runs, one.runs)

    def test_invalid_workers_rejected(self, pair):
        with pytest.raises(ExperimentError):
            run_experiment(pair, **SETTINGS, n_workers=0)

    def test_seeds_follow_base_seed(self, pair):
        result = run_experiment(pair, **SETTINGS, base_seed=30, n_workers=2)
        assert [run.seed for run in result.runs] == [30, 31]


class TestExperimentMatrix:
    @pytest.fixture(scope="class")
    def pairs(self, pair):
        return [pair, load("beers", n_rows=40, seed=4)]

    def test_matrix_matches_per_dataset_runs(self, pairs):
        matrix = run_experiment_matrix(pairs, **SETTINGS)
        assert list(matrix) == [p.name for p in pairs]
        for p in pairs:
            single = run_experiment(p, **SETTINGS)
            assert matrix[p.name].dataset == single.dataset
            assert matrix[p.name].system == single.system
            assert_same_runs(single.runs, matrix[p.name].runs)

    def test_parallel_matrix_reproduces_serial(self, pairs):
        serial = run_experiment_matrix(pairs, **SETTINGS)
        parallel = run_experiment_matrix(pairs, **SETTINGS, n_workers=2)
        assert list(serial) == list(parallel)
        for name in serial:
            assert_same_runs(serial[name].runs, parallel[name].runs)

    def test_duplicate_dataset_names_rejected(self, pair):
        with pytest.raises(ExperimentError):
            run_experiment_matrix([pair, pair], **SETTINGS)

    def test_invalid_n_runs_rejected(self, pairs):
        with pytest.raises(ExperimentError):
            run_experiment_matrix(pairs, n_runs=0)

    def test_training_config_override(self, pair):
        """A full TrainingConfig flows through the matrix."""
        from repro.models import TrainingConfig
        config = TrainingConfig(epochs=2, batch_fraction=0.5)
        matrix = run_experiment_matrix([pair], n_runs=1, n_label_tuples=6,
                                       model_config=TINY,
                                       training_config=config, n_workers=2)
        result = matrix[pair.name]
        assert len(result.runs) == 1
        assert 0.0 <= result.f1.mean <= 1.0
