"""Crash-safe training: checkpointing, resume, and bit-identity.

The core contract: killing training after any epoch and resuming from
the epoch checkpoint yields final weights byte-identical to the
uninterrupted run -- the checkpoint carries the model, the optimizer
slots, the shuffling RNG state and every callback's state, so the
resumed trajectory is the same trajectory.
"""

import os

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.ops import softmax
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec, WorkerKilled, use_plan
from repro.models.serialization import (
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.nn import RMSprop, Trainer
from repro.nn.callbacks import BestWeightsCheckpoint, Callback, EarlyStopping
from repro.nn.module import Module, Parameter


class TinyClassifier(Module):
    """Minimal two-class model; enough structure for real optimization."""

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.w = Parameter(rng.normal(size=(4, 2)) * 0.3, name="w")
        self.b = Parameter(np.zeros(2), name="b")

    def forward(self, features):
        return softmax(Tensor(features["x"]) @ self.w + self.b)


class HalvingRate(Callback):
    """Halves the optimizer's rate every third epoch: a callback that
    changes training, so a resume must bring back both the applied rate
    (optimizer state) and the callback's own record of it."""

    def __init__(self, optimizer, base_rate=0.01, every=3):
        self.optimizer = optimizer
        self.base_rate = base_rate
        self.every = every
        self.rates: list[float] = []

    def on_train_begin(self, model):
        self.optimizer.learning_rate = self.base_rate
        self.rates = [self.base_rate]

    def on_epoch_end(self, model, epoch, logs):
        logs["learning_rate"] = self.optimizer.learning_rate
        self.optimizer.learning_rate = (
            self.base_rate * 0.5 ** ((epoch + 1) // self.every))
        self.rates.append(self.optimizer.learning_rate)

    def state_dict(self):
        return {"rates": list(self.rates)}

    def load_state_dict(self, state):
        self.rates = [float(rate) for rate in state.get("rates", [])]


def _loss(probs, labels):
    picked = probs[np.arange(labels.shape[0]), labels]
    return -(picked.log().sum() / labels.shape[0])


def make_data(n=32, seed=7):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(n, 4))}, rng.integers(0, 2, size=n)


def make_trainer(seed=0, with_schedule=True):
    model = TinyClassifier(np.random.default_rng(seed))
    optimizer = RMSprop(model.parameters(), learning_rate=0.01)
    callbacks = [BestWeightsCheckpoint(), EarlyStopping(patience=50)]
    if with_schedule:
        callbacks.append(HalvingRate(optimizer))
    return Trainer(model=model, optimizer=optimizer, loss_fn=_loss,
                   rng=np.random.default_rng(123), callbacks=callbacks)


def final_state(trainer):
    return {k: v.copy() for k, v in trainer.model.state_dict().items()}


def assert_identical(a, b):
    assert set(a) == set(b)
    for key in a:
        assert a[key].tobytes() == b[key].tobytes(), key


class TestCheckpointFile:
    def test_save_load_round_trip(self, tmp_path):
        trainer = make_trainer()
        feats, labels = make_data()
        trainer.fit(feats, labels, epochs=3, batch_size=8)
        path = tmp_path / "ck.npz"
        save_training_checkpoint(path, trainer.model, trainer.optimizer,
                                 epoch=2, rng=trainer.rng,
                                 callbacks=trainer._all_callbacks)
        ckpt = load_training_checkpoint(path)
        assert ckpt.epoch == 2
        assert_identical(ckpt.model_state, trainer.model.state_dict())
        assert ckpt.rng_state == trainer.rng.bit_generator.state
        assert ckpt.callback_types == tuple(
            type(cb).__name__ for cb in trainer._all_callbacks)

    def test_atomic_write_keeps_previous_on_failure(self, tmp_path,
                                                    monkeypatch):
        trainer = make_trainer()
        path = tmp_path / "ck.npz"
        save_training_checkpoint(path, trainer.model, trainer.optimizer,
                                 epoch=0, rng=trainer.rng)
        before = path.read_bytes()

        import numpy as _np
        real_savez = _np.savez

        def exploding_savez(file, **arrays):
            real_savez(file, **{k: arrays[k] for k in list(arrays)[:1]})
            raise OSError("disk full")

        monkeypatch.setattr(_np, "savez", exploding_savez)
        with pytest.raises(OSError):
            save_training_checkpoint(path, trainer.model, trainer.optimizer,
                                     epoch=1, rng=trainer.rng)
        monkeypatch.undo()
        assert path.read_bytes() == before          # old checkpoint intact
        assert load_training_checkpoint(path).epoch == 0
        assert not [p for p in tmp_path.iterdir()   # no temp litter
                    if ".tmp" in p.name]

    def test_non_checkpoint_file_rejected(self, tmp_path):
        from repro.errors import DataError

        path = tmp_path / "junk.npz"
        np.savez(path, meta=np.asarray('{"format": "something-else"}'))
        with pytest.raises(DataError):
            load_training_checkpoint(path)


class TestResume:
    @pytest.mark.parametrize("kill_after", range(6))
    def test_resume_is_bit_identical(self, tmp_path, kill_after):
        feats, labels = make_data()
        epochs = 6
        reference = make_trainer()
        reference.fit(feats, labels, epochs=epochs, batch_size=8)
        ref = final_state(reference)

        path = tmp_path / "ck.npz"
        first = make_trainer()
        first.fit(feats, labels, epochs=kill_after + 1, batch_size=8,
                  checkpoint_path=path)
        resumed = make_trainer()  # fresh process: everything rebuilt
        resumed.fit(feats, labels, epochs=epochs, batch_size=8,
                    checkpoint_path=path, resume_from=path)
        assert_identical(final_state(resumed), ref)

    def test_missing_resume_file_starts_fresh(self, tmp_path):
        feats, labels = make_data()
        reference = make_trainer()
        reference.fit(feats, labels, epochs=4, batch_size=8)
        fresh = make_trainer()
        fresh.fit(feats, labels, epochs=4, batch_size=8,
                  resume_from=tmp_path / "never-written.npz")
        assert_identical(final_state(fresh), final_state(reference))

    def test_history_spans_both_halves(self, tmp_path):
        feats, labels = make_data()
        path = tmp_path / "ck.npz"
        first = make_trainer()
        first.fit(feats, labels, epochs=2, batch_size=8,
                  checkpoint_path=path)
        resumed = make_trainer()
        history = resumed.fit(feats, labels, epochs=5, batch_size=8,
                              resume_from=path)
        assert history.epochs == [0, 1, 2, 3, 4]
        reference = make_trainer()
        full = reference.fit(feats, labels, epochs=5, batch_size=8)
        assert history.series("loss") == full.series("loss")

    def test_checkpoint_every_still_writes_final_epoch(self, tmp_path):
        feats, labels = make_data()
        path = tmp_path / "ck.npz"
        trainer = make_trainer()
        trainer.fit(feats, labels, epochs=5, batch_size=8,
                    checkpoint_path=path, checkpoint_every=3)
        assert load_training_checkpoint(path).epoch == 4

    def test_mismatched_callbacks_rejected(self, tmp_path):
        feats, labels = make_data()
        path = tmp_path / "ck.npz"
        make_trainer(with_schedule=True).fit(
            feats, labels, epochs=1, batch_size=8, checkpoint_path=path)
        other = make_trainer(with_schedule=False)
        with pytest.raises(ConfigurationError, match="callbacks"):
            other.fit(feats, labels, epochs=2, batch_size=8,
                      resume_from=path)

    def test_invalid_checkpoint_every_rejected(self):
        feats, labels = make_data()
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            make_trainer().fit(feats, labels, epochs=1, batch_size=8,
                               checkpoint_every=0)

    def test_optimizer_state_resumes(self, tmp_path):
        feats, labels = make_data()
        path = tmp_path / "ck.npz"
        trainer = make_trainer()
        trainer.fit(feats, labels, epochs=3, batch_size=8,
                    checkpoint_path=path)
        resumed = make_trainer()
        resumed._restore_checkpoint(path)
        for a, b in zip(trainer.optimizer._mean_square,
                        resumed.optimizer._mean_square):
            assert a.tobytes() == b.tobytes()
        assert resumed.optimizer.learning_rate == trainer.optimizer.learning_rate


class TestKillFaultsInTraining:
    def test_kill_at_epoch_end_then_resume(self, tmp_path):
        """The harshest window: die after callbacks but before the save."""
        feats, labels = make_data()
        epochs = 5
        reference = make_trainer()
        reference.fit(feats, labels, epochs=epochs, batch_size=8)
        ref = final_state(reference)

        path = tmp_path / "ck.npz"
        plan = FaultPlan([FaultSpec(point="trainer.epoch_end",
                                    action="kill", match={"epoch": 3})])
        victim = make_trainer()
        with use_plan(plan):
            with pytest.raises(WorkerKilled):
                victim.fit(feats, labels, epochs=epochs, batch_size=8,
                           checkpoint_path=path)
        # Epoch 3 died before its checkpoint: the file holds epoch 2 and
        # the resumed run replays epochs 3 and 4.
        assert load_training_checkpoint(path).epoch == 2
        resumed = make_trainer()
        resumed.fit(feats, labels, epochs=epochs, batch_size=8,
                    checkpoint_path=path, resume_from=path)
        assert_identical(final_state(resumed), ref)

    def test_kill_mid_epoch_then_resume(self, tmp_path):
        """A batch-step kill loses the partial epoch, never the checkpoint."""
        feats, labels = make_data()
        epochs = 5
        reference = make_trainer()
        reference.fit(feats, labels, epochs=epochs, batch_size=8)
        ref = final_state(reference)

        path = tmp_path / "ck.npz"
        plan = FaultPlan([FaultSpec(point="trainer.batch_step",
                                    action="kill",
                                    match={"epoch": 2, "batch": 1})])
        victim = make_trainer()
        with use_plan(plan):
            with pytest.raises(WorkerKilled):
                victim.fit(feats, labels, epochs=epochs, batch_size=8,
                           checkpoint_path=path)
        assert load_training_checkpoint(path).epoch == 1
        resumed = make_trainer()
        resumed.fit(feats, labels, epochs=epochs, batch_size=8,
                    checkpoint_path=path, resume_from=path)
        assert_identical(final_state(resumed), ref)


@pytest.mark.chaos
class TestDetectorChaosSweep:
    """Kill-at-every-epoch sweep on the real detector, both backends."""

    @pytest.mark.parametrize("backend", ["fused", "graph"])
    def test_every_epoch_kill_resumes_bit_identical(self, tmp_path, backend,
                                                    pair):
        from repro.nn import use_backend
        from tests.faults.conftest import TINY

        from repro.models import ErrorDetector, TrainingConfig

        epochs = 3

        def fit_detector(checkpoint_path=None, resume_from=None):
            detector = ErrorDetector(
                architecture="etsb", n_label_tuples=6, model_config=TINY,
                training_config=TrainingConfig(epochs=epochs), seed=0)
            detector.fit(pair, checkpoint_path=checkpoint_path,
                         resume_from=resume_from)
            return detector

        with use_backend(backend):
            ref = {k: v.copy()
                   for k, v in fit_detector().model.state_dict().items()}
            for kill_epoch in range(epochs):
                path = tmp_path / f"{backend}-{kill_epoch}.npz"
                plan = FaultPlan([FaultSpec(point="trainer.epoch_end",
                                            action="kill",
                                            match={"epoch": kill_epoch})])
                with use_plan(plan):
                    with pytest.raises(WorkerKilled):
                        fit_detector(checkpoint_path=path)
                if kill_epoch == 0:
                    assert not os.path.exists(path)
                resumed = fit_detector(checkpoint_path=path,
                                       resume_from=path)
                assert_identical(resumed.model.state_dict(), ref)
