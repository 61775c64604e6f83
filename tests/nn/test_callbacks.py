"""Tests for the training callbacks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import (
    BestWeightsCheckpoint,
    Dense,
    EpochEvaluator,
    History,
)


@pytest.fixture
def model(rng):
    return Dense(2, 2, rng)


class TestHistory:
    def test_records_all_epochs(self, model):
        history = History()
        for epoch in range(3):
            history.on_epoch_end(model, epoch, {"loss": float(epoch)})
        assert history.epochs == [0, 1, 2]
        assert history.series("loss") == [0.0, 1.0, 2.0]

    def test_multiple_metrics(self, model):
        history = History()
        history.on_epoch_end(model, 0, {"loss": 1.0, "acc": 0.5})
        assert history.series("acc") == [0.5]

    def test_unknown_series_raises(self, model):
        with pytest.raises(ConfigurationError):
            History().series("nope")


class TestBestWeightsCheckpoint:
    def test_snapshots_on_improvement(self, model):
        cb = BestWeightsCheckpoint()
        cb.on_epoch_end(model, 0, {"loss": 1.0})
        model.kernel.data[:] = 99.0
        cb.on_epoch_end(model, 1, {"loss": 2.0})  # worse, no snapshot
        cb.on_train_end(model)
        assert not (model.kernel.data == 99.0).any()
        assert cb.best_epoch == 0
        assert cb.best_value == 1.0

    def test_restores_latest_best(self, model):
        cb = BestWeightsCheckpoint()
        cb.on_epoch_end(model, 0, {"loss": 2.0})
        model.kernel.data[:] = 7.0
        cb.on_epoch_end(model, 1, {"loss": 1.0})  # improvement at epoch 1
        model.kernel.data[:] = 99.0
        cb.on_train_end(model)
        assert (model.kernel.data == 7.0).all()
        assert cb.best_epoch == 1

    def test_max_mode(self, model):
        cb = BestWeightsCheckpoint(monitor="acc", mode="max")
        cb.on_epoch_end(model, 0, {"acc": 0.5})
        cb.on_epoch_end(model, 1, {"acc": 0.9})
        assert cb.best_epoch == 1

    def test_missing_metric_raises(self, model):
        with pytest.raises(ConfigurationError):
            BestWeightsCheckpoint().on_epoch_end(model, 0, {"acc": 1.0})

    def test_restore_without_snapshot_raises(self, model):
        with pytest.raises(ConfigurationError):
            BestWeightsCheckpoint().restore(model)

    def test_no_restore_when_disabled(self, model):
        cb = BestWeightsCheckpoint(restore_on_end=False)
        cb.on_epoch_end(model, 0, {"loss": 1.0})
        model.kernel.data[:] = 42.0
        cb.on_train_end(model)
        assert (model.kernel.data == 42.0).all()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            BestWeightsCheckpoint(mode="median")


class TestEpochEvaluator:
    def test_injects_metrics(self, model):
        cb = EpochEvaluator(lambda: {"test_acc": 0.75})
        logs = {"loss": 1.0}
        cb.on_epoch_end(model, 0, logs)
        assert logs["test_acc"] == 0.75

    def test_switches_to_eval_and_back(self, model):
        modes = []
        cb = EpochEvaluator(lambda: (modes.append(model.training), {})[1])
        cb.on_epoch_end(model, 0, {})
        assert modes == [False]
        assert model.training

    def test_restores_mode_on_exception(self, model):
        def boom():
            raise RuntimeError("x")
        cb = EpochEvaluator(boom)
        with pytest.raises(RuntimeError):
            cb.on_epoch_end(model, 0, {})
        assert model.training
