"""Tests for the optimizer: convergence and update rules."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigurationError
from repro.nn import RMSprop, clip_gradients
from repro.nn.module import Parameter


def quadratic_loss(param: Parameter) -> Tensor:
    """(p - 3)^2 summed: minimised at p == 3."""
    return ((param - 3.0) ** 2).sum()


def minimize(optimizer_cls, steps=300, **kwargs):
    param = Parameter(np.array([0.0, 10.0]))
    optimizer = optimizer_cls([param], **kwargs)
    for _ in range(steps):
        optimizer.zero_grad()
        quadratic_loss(param).backward()
        optimizer.step()
    return param.data


class TestConvergence:
    def test_rmsprop(self):
        result = minimize(RMSprop, steps=800, learning_rate=0.05)
        assert result == pytest.approx([3.0, 3.0], abs=1e-2)


class TestUpdateRules:
    def test_rmsprop_first_step_magnitude(self):
        # First step: lr * g / (sqrt((1-rho) g^2) + eps) ~ lr / sqrt(1-rho)
        param = Parameter(np.array([0.0]))
        param.grad = np.array([4.0])
        RMSprop([param], learning_rate=0.001, rho=0.9).step()
        assert param.data[0] == pytest.approx(-0.001 / np.sqrt(0.1), rel=1e-3)

    def test_none_grad_skipped(self):
        param = Parameter(np.array([1.0]))
        RMSprop([param], learning_rate=0.5).step()
        assert param.data[0] == 1.0

    def test_zero_grad_clears(self):
        param = Parameter(np.array([1.0]))
        param.grad = np.array([1.0])
        optimizer = RMSprop([param])
        optimizer.zero_grad()
        assert param.grad is None


class TestValidation:
    def test_empty_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RMSprop([], learning_rate=0.1)

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            RMSprop([Parameter(np.zeros(1))], learning_rate=0.0)

    def test_bad_rho(self):
        with pytest.raises(ConfigurationError):
            RMSprop([Parameter(np.zeros(1))], rho=1.0)


class TestClipGradients:
    def test_norm_reported(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([3.0, 4.0])
        assert clip_gradients([param], max_norm=100.0) == pytest.approx(5.0)

    def test_clipping_applied(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([30.0, 40.0])
        clip_gradients([param], max_norm=5.0)
        assert np.linalg.norm(param.grad) == pytest.approx(5.0)

    def test_below_threshold_untouched(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([1.0, 1.0])
        clip_gradients([param], max_norm=10.0)
        np.testing.assert_array_equal(param.grad, [1.0, 1.0])

    def test_global_norm_across_parameters(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        clip_gradients([a, b], max_norm=1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)

    def test_bad_max_norm(self):
        with pytest.raises(ConfigurationError):
            clip_gradients([Parameter(np.zeros(1))], max_norm=0.0)
