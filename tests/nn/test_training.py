"""Tests for the Trainer and batching."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import Dense, RMSprop, Trainer, categorical_cross_entropy
from repro.nn.losses import one_hot
from repro.nn.module import Module
from repro.nn.training import iterate_batches, predict_proba
from repro.autograd import softmax


class DictDense(Module):
    """Adapter: Dense over the 'x' feature (softmax output)."""

    def __init__(self, rng, in_dim=2, out_dim=2):
        super().__init__()
        self.dense = Dense(in_dim, out_dim, rng, activation="softmax")

    def forward(self, features):
        from repro.autograd import Tensor
        return self.dense(Tensor(features["x"]))


def loss_fn(probs, labels):
    return categorical_cross_entropy(probs, one_hot(labels, 2))


@pytest.fixture
def xor_like(rng):
    """A linearly separable 2-d problem."""
    x = rng.normal(size=(80, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return {"x": x}, y


class TestIterateBatches:
    def test_covers_all_rows(self):
        batches = list(iterate_batches({"x": np.arange(10)[:, None]},
                                       np.arange(10), batch_size=3))
        assert [b.size for b in batches] == [3, 3, 3, 1]

    def test_shuffle_with_rng(self, rng):
        features = {"x": np.arange(10)[:, None]}
        labels = np.arange(10)
        batches = list(iterate_batches(features, labels, 10, rng=rng))
        assert not (batches[0].labels == np.arange(10)).all()
        assert sorted(batches[0].labels) == list(range(10))

    def test_features_and_labels_aligned(self, rng):
        features = {"x": np.arange(10)[:, None]}
        labels = np.arange(10)
        for batch in iterate_batches(features, labels, 4, rng=rng):
            np.testing.assert_array_equal(batch.features["x"][:, 0],
                                          batch.labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            list(iterate_batches({"x": np.zeros((3, 1))}, np.zeros(2), 2))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            list(iterate_batches({"x": np.zeros((0, 1))}, np.zeros(0), 2))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            list(iterate_batches({"x": np.zeros((3, 1))}, np.zeros(3), 0))


class TestTrainer:
    def test_loss_decreases(self, rng, xor_like):
        features, labels = xor_like
        model = DictDense(rng)
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.05),
                          loss_fn=loss_fn, rng=rng)
        history = trainer.fit(features, labels, epochs=30, batch_size=20)
        losses = history.series("loss")
        assert losses[-1] < losses[0] * 0.7

    def test_history_has_one_entry_per_epoch(self, rng, xor_like):
        features, labels = xor_like
        model = DictDense(rng)
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.01),
                          loss_fn=loss_fn)
        history = trainer.fit(features, labels, epochs=5, batch_size=20)
        assert len(history.epochs) == 5

    def test_predict_proba_shape_and_distribution(self, rng, xor_like):
        features, labels = xor_like
        model = DictDense(rng)
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.01),
                          loss_fn=loss_fn)
        trainer.fit(features, labels, epochs=3, batch_size=20)
        probs = trainer.predict_proba(features)
        assert probs.shape == (80, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_learns_separable_problem(self, rng, xor_like):
        features, labels = xor_like
        model = DictDense(rng)
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.05),
                          loss_fn=loss_fn, rng=rng)
        trainer.fit(features, labels, epochs=60, batch_size=20)
        accuracy = (trainer.predict_proba(features).argmax(1) == labels).mean()
        assert accuracy > 0.95

    def test_invalid_epochs_rejected(self, rng, xor_like):
        features, labels = xor_like
        model = DictDense(rng)
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.01),
                          loss_fn=loss_fn)
        with pytest.raises(ConfigurationError):
            trainer.fit(features, labels, epochs=0, batch_size=8)

    def test_gradient_clipping_optional(self, rng, xor_like):
        features, labels = xor_like
        model = DictDense(rng)
        trainer = Trainer(model=model,
                          optimizer=RMSprop(model.parameters(), 0.01),
                          loss_fn=loss_fn, max_grad_norm=None)
        trainer.fit(features, labels, epochs=2, batch_size=20)  # no crash


class TestPredictProba:
    def test_chunking_matches_single_pass(self, rng, xor_like):
        features, _ = xor_like
        model = DictDense(rng)
        a = predict_proba(model, features, batch_size=7)
        b = predict_proba(model, features, batch_size=500)
        np.testing.assert_allclose(a, b)

    def test_eval_mode_not_required_for_detachment(self, rng, xor_like):
        features, _ = xor_like
        model = DictDense(rng)
        probs = predict_proba(model, features)
        assert probs.shape[0] == 80
