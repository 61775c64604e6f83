"""Tests for Dense, Embedding and initializers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigurationError
from repro.nn import Dense, Embedding
from repro.nn.init import glorot_uniform, orthogonal, uniform, zeros


class TestInitializers:
    def test_zeros(self):
        assert (zeros((3, 2)) == 0).all()

    def test_uniform_bounds(self, rng):
        w = uniform(rng, (100,), low=-0.1, high=0.1)
        assert (np.abs(w) <= 0.1).all()

    def test_glorot_limit(self, rng):
        w = glorot_uniform(rng, (50, 50))
        limit = np.sqrt(6.0 / 100)
        assert (np.abs(w) <= limit).all()

    def test_glorot_needs_2d(self, rng):
        with pytest.raises(ConfigurationError):
            glorot_uniform(rng, (5,))

    def test_orthogonal_square(self, rng):
        w = orthogonal(rng, (8, 8))
        np.testing.assert_allclose(w @ w.T, np.eye(8), atol=1e-10)

    def test_orthogonal_tall(self, rng):
        w = orthogonal(rng, (8, 4))
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-10)

    def test_orthogonal_wide(self, rng):
        w = orthogonal(rng, (4, 8))
        np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-10)

    def test_orthogonal_needs_2d(self, rng):
        with pytest.raises(ConfigurationError):
            orthogonal(rng, (4, 4, 4))

    def test_deterministic_given_seed(self):
        a = glorot_uniform(np.random.default_rng(7), (3, 3))
        b = glorot_uniform(np.random.default_rng(7), (3, 3))
        np.testing.assert_array_equal(a, b)


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(4, 3, rng)
        assert layer(Tensor(np.ones((5, 4)))).shape == (5, 3)

    def test_relu_activation(self, rng):
        layer = Dense(2, 2, rng, activation="relu")
        out = layer(Tensor(np.ones((1, 2))))
        assert (out.data >= 0).all()

    def test_softmax_activation(self, rng):
        layer = Dense(3, 4, rng, activation="softmax")
        out = layer(Tensor(np.ones((2, 3))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0)

    def test_no_bias(self, rng):
        layer = Dense(2, 2, rng, use_bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_matches_manual(self, rng):
        layer = Dense(2, 2, rng)
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.kernel.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_unknown_activation_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="activation"):
            Dense(2, 2, rng, activation="gelu")

    def test_bad_width_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            Dense(0, 2, rng)

    def test_wrong_input_dim_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="expected last dim"):
            Dense(4, 2, rng)(Tensor(np.ones((1, 3))))

    def test_3d_input_supported(self, rng):
        layer = Dense(4, 3, rng)
        assert layer(Tensor(np.ones((2, 5, 4)))).shape == (2, 5, 3)


class TestEmbedding:
    def test_lookup_shape(self, rng):
        layer = Embedding(10, 4, rng)
        out = layer(np.array([[1, 2, 0]]))
        assert out.shape == (1, 3, 4)

    def test_padding_mask(self, rng):
        layer = Embedding(10, 4, rng)
        mask = layer.padding_mask(np.array([[1, 0, 3]]))
        assert (mask == [[True, False, True]]).all()

    def test_mask_disabled(self, rng):
        layer = Embedding(10, 4, rng, mask_zero=False)
        assert layer.padding_mask(np.array([[0]])) is None

    def test_initial_values_bounded(self, rng):
        layer = Embedding(50, 8, rng)
        assert (np.abs(layer.weights.data) <= 0.05).all()

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            Embedding(0, 4, rng)
        with pytest.raises(ConfigurationError):
            Embedding(4, 0, rng)

    def test_trainable(self, rng):
        layer = Embedding(5, 2, rng)
        layer(np.array([1, 2])).sum().backward()
        assert layer.weights.grad is not None
        assert (layer.weights.grad[0] == 0).all()  # index 0 unused
