"""Tests for Module/Parameter discovery, modes and state dicts."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigurationError
from repro.nn import Dense
from repro.nn.module import Module, Parameter


class Toy(Module):
    def __init__(self, rng):
        super().__init__()
        self.w = Parameter(np.ones(3))
        self.child = Dense(2, 2, rng)
        self.register_buffer("stat", np.zeros(2))

    def forward(self, x):
        return x


class LayerList(Module):
    """Children held in a list attribute."""

    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        return x


class TestDiscovery:
    def test_named_parameters_recurse(self, rng):
        names = dict(Toy(rng).named_parameters())
        assert "w" in names
        assert "child.kernel" in names
        assert "child.bias" in names

    def test_parameters_flat_list(self, rng):
        assert len(Toy(rng).parameters()) == 3

    def test_n_parameters(self, rng):
        assert Toy(rng).n_parameters() == 3 + 4 + 2

    def test_children_in_lists_found(self, rng):
        layers = LayerList(Dense(2, 2, rng), Dense(2, 2, rng))
        assert len(layers.parameters()) == 4

    def test_named_buffers_recurse(self, rng):
        toy = Toy(rng)
        names = dict(toy.named_buffers())
        assert "stat" in names
        # Dense has no buffers; BatchNorm children would appear dotted.


class TestModes:
    def test_training_default(self, rng):
        assert Toy(rng).training

    def test_eval_propagates(self, rng):
        toy = Toy(rng).eval()
        assert not toy.training
        assert not toy.child.training

    def test_train_restores(self, rng):
        toy = Toy(rng).eval().train()
        assert toy.child.training


class TestBuffers:
    def test_register_and_read(self, rng):
        toy = Toy(rng)
        assert (toy.buffer("stat") == 0).all()

    def test_set_buffer(self, rng):
        toy = Toy(rng)
        toy.set_buffer("stat", np.ones(2))
        assert (toy.buffer("stat") == 1).all()

    def test_unknown_buffer_raises(self, rng):
        with pytest.raises(ConfigurationError):
            Toy(rng).buffer("nope")

    def test_set_unknown_buffer_raises(self, rng):
        with pytest.raises(ConfigurationError):
            Toy(rng).set_buffer("nope", np.ones(1))


class TestStateDict:
    def test_round_trip(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        toy.w.data[:] = 99
        toy.set_buffer("stat", np.full(2, 7.0))
        toy.load_state_dict(state)
        assert (toy.w.data == 1).all()
        assert (toy.buffer("stat") == 0).all()

    def test_state_dict_is_a_copy(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["w"][:] = 42
        assert (toy.w.data == 1).all()

    def test_missing_key_rejected(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        del state["w"]
        with pytest.raises(ConfigurationError, match="missing"):
            toy.load_state_dict(state)

    def test_unexpected_key_rejected(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(ConfigurationError, match="unexpected"):
            toy.load_state_dict(state)

    def test_shape_mismatch_rejected(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["w"] = np.zeros(5)
        with pytest.raises(ConfigurationError, match="shape"):
            toy.load_state_dict(state)

    def test_shape_mismatch_leaves_weights_untouched(self, rng):
        # Validation must complete before any parameter is copied: a
        # rejected state dict may not leave the model half-overwritten
        # (nor bump its weights_version).
        toy = Toy(rng)
        before = {name: param.data.copy()
                  for name, param in toy.named_parameters()}
        version = toy.weights_version
        state = toy.state_dict()
        for key in state:
            if not key.startswith("buffer:"):
                state[key] = state[key] + 42.0
        state["child.bias"] = np.zeros(5)
        with pytest.raises(ConfigurationError, match="shape"):
            toy.load_state_dict(state)
        for name, param in toy.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert toy.weights_version == version

    def test_zero_grad(self, rng):
        toy = Toy(rng)
        out = toy.child(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert toy.child.kernel.grad is not None
        toy.zero_grad()
        assert toy.child.kernel.grad is None


class TestForward:
    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module().forward()

    def test_call_delegates_to_forward(self, rng):
        toy = Toy(rng)
        assert toy("echo") == "echo"

    def test_repr_lists_children(self, rng):
        assert "child" in repr(Toy(rng))
