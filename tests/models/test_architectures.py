"""Tests for the TSB-RNN / ETSB-RNN architectures and configs."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import ETSBRNN, ModelConfig, TrainingConfig, TSBRNN, build_model
from repro.nn.losses import one_hot
from repro.nn import categorical_cross_entropy


@pytest.fixture
def config():
    # Small widths keep the gradient-flow tests fast.
    return ModelConfig(char_embed_dim=4, value_units=5, num_layers=2,
                       attr_embed_dim=3, attr_units=3,
                       length_dense_units=4, head_units=6)


@pytest.fixture
def features(rng):
    values = rng.integers(1, 8, size=(6, 10))
    lengths = rng.integers(1, 11, size=6)
    values[np.arange(10) >= lengths[:, None]] = 0  # right padding, as encoded
    return {
        "values": values,
        "attributes": rng.integers(1, 4, size=6),
        "length_norm": rng.uniform(0, 1, size=(6, 1)),
    }


class TestModelConfig:
    def test_defaults_match_paper(self):
        config = ModelConfig()
        assert config.value_units == 64
        assert config.num_layers == 2
        assert config.attr_units == 8
        assert config.length_dense_units == 64
        assert config.head_units == 32

    def test_invalid_widths_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(value_units=0)

    def test_training_defaults_match_paper(self):
        config = TrainingConfig()
        assert config.epochs == 120
        assert config.batch_fraction == 0.25

    def test_batch_size_quarter_of_trainset(self):
        assert TrainingConfig().batch_size(220) == 55  # the Beers example

    def test_batch_size_at_least_one(self):
        assert TrainingConfig().batch_size(2) == 1

    def test_training_validation(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(batch_fraction=0.0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(learning_rate=-1)


class TestTSBRNN:
    def test_output_is_distribution(self, rng, config, features):
        model = TSBRNN(9, config, rng)
        out = model(features)
        assert out.shape == (6, 2)
        np.testing.assert_allclose(out.numpy().sum(axis=1), 1.0)

    def test_ignores_extra_features(self, rng, config, features):
        model = TSBRNN(9, config, rng)
        only_values = {"values": features["values"]}
        model.eval()
        np.testing.assert_allclose(model(features).numpy(),
                                   model(only_values).numpy())

    def test_missing_values_feature_rejected(self, rng, config):
        with pytest.raises(ConfigurationError):
            TSBRNN(9, config, rng)({"attributes": np.zeros(2, dtype=int)})

    def test_fully_padded_row_handled(self, rng, config):
        """An empty cell value (all pad indices) must still classify."""
        model = TSBRNN(9, config, rng)
        out = model({"values": np.zeros((2, 10), dtype=np.int64)})
        assert np.isfinite(out.numpy()).all()

    def test_empty_and_nonempty_get_different_outputs(self, rng, config):
        model = TSBRNN(9, config, rng)
        model.eval()
        values = np.zeros((2, 10), dtype=np.int64)
        values[1, :3] = [1, 2, 3]
        out = model({"values": values}).numpy()
        assert not np.allclose(out[0], out[1])

    def test_trainable_end_to_end(self, rng, config, features):
        model = TSBRNN(9, config, rng)
        labels = np.array([0, 1, 0, 1, 0, 1])
        loss = categorical_cross_entropy(model(features), one_hot(labels, 2))
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)


class TestETSBRNN:
    def test_output_is_distribution(self, rng, config, features):
        model = ETSBRNN(9, 5, config, rng)
        out = model(features)
        assert out.shape == (6, 2)
        np.testing.assert_allclose(out.numpy().sum(axis=1), 1.0)

    def test_requires_all_three_inputs(self, rng, config, features):
        model = ETSBRNN(9, 5, config, rng)
        for missing in ("values", "attributes", "length_norm"):
            partial = {k: v for k, v in features.items() if k != missing}
            with pytest.raises(ConfigurationError, match=missing):
                model(partial)

    def test_attribute_changes_output(self, rng, config, features):
        """The enrichment must actually flow into the prediction."""
        model = ETSBRNN(9, 5, config, rng)
        model.eval()
        a = model(features).numpy()
        swapped = dict(features)
        swapped["attributes"] = (features["attributes"] % 4) + 1
        b = model(swapped).numpy()
        assert not np.allclose(a, b)

    def test_length_changes_output(self, rng, config, features):
        model = ETSBRNN(9, 5, config, rng)
        model.eval()
        a = model(features).numpy()
        changed = dict(features)
        changed["length_norm"] = features["length_norm"] * 0.1
        assert not np.allclose(a, model(changed).numpy())

    def test_has_more_parameters_than_tsb(self, rng, config):
        tsb = TSBRNN(9, config, np.random.default_rng(0))
        etsb = ETSBRNN(9, 5, config, np.random.default_rng(0))
        assert etsb.n_parameters() > tsb.n_parameters()

    def test_trainable_end_to_end(self, rng, config, features):
        model = ETSBRNN(9, 5, config, rng)
        labels = np.array([0, 1, 0, 1, 0, 1])
        loss = categorical_cross_entropy(model(features), one_hot(labels, 2))
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())


class TestBuildModel:
    def test_builds_both(self, rng, config, paper_example):
        from repro.dataprep import prepare
        dirty, clean = paper_example
        prepared = prepare(dirty, clean)
        tsb = build_model("tsb", prepared, config, rng)
        etsb = build_model("etsb", prepared, config, rng)
        assert isinstance(tsb, TSBRNN)
        assert isinstance(etsb, ETSBRNN)

    def test_unknown_architecture_rejected(self, rng, config, paper_example):
        from repro.dataprep import prepare
        dirty, clean = paper_example
        with pytest.raises(ConfigurationError):
            build_model("lstm", prepare(dirty, clean), config, rng)
