"""Finite-difference validation of every analytic gradient."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    concat,
    embedding_lookup,
    relu,
    sigmoid,
    softmax,
    stack,
    tanh,
    where,
)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestArithmeticGradients:
    def test_add(self, rng):
        a, b = leaf(rng, 3, 2), leaf(rng, 3, 2)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_add_broadcast(self, rng):
        a, b = leaf(rng, 3, 2), leaf(rng, 2)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_mul(self, rng):
        a, b = leaf(rng, 4), leaf(rng, 4)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast(self, rng):
        a, b = leaf(rng, 2, 3), leaf(rng, 1, 3)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = leaf(rng, 3)
        b = Tensor(rng.uniform(0.5, 2.0, size=3), requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        check_gradients(lambda: (a ** 3).sum(), [a])

    def test_neg_sub(self, rng):
        a, b = leaf(rng, 3), leaf(rng, 3)
        check_gradients(lambda: (a - b).sum(), [a, b])


class TestMatmulGradients:
    def test_2d_2d(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_3d_2d(self, rng):
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_1d_2d(self, rng):
        a, b = leaf(rng, 4), leaf(rng, 4, 3)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_2d_1d(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_1d_1d(self, rng):
        a, b = leaf(rng, 4), leaf(rng, 4)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_3d_3d(self, rng):
        a, b = leaf(rng, 2, 3, 4), leaf(rng, 2, 4, 5)
        check_gradients(lambda: (a @ b).sum(), [a, b])


class TestShapeGradients:
    def test_reshape(self, rng):
        a = leaf(rng, 2, 6)
        check_gradients(lambda: (a.reshape(3, 4) * 2).sum(), [a])

    def test_transpose(self, rng):
        a = leaf(rng, 2, 3, 4)
        check_gradients(lambda: (a.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_getitem_slice(self, rng):
        a = leaf(rng, 4, 5)
        check_gradients(lambda: (a[1:3, :2] ** 2).sum(), [a])

    def test_getitem_int(self, rng):
        a = leaf(rng, 4, 5)
        check_gradients(lambda: (a[2] ** 2).sum(), [a])

    def test_sum_axis(self, rng):
        a = leaf(rng, 3, 4)
        check_gradients(lambda: (a.sum(axis=1) ** 2).sum(), [a])

    def test_mean_axis(self, rng):
        a = leaf(rng, 3, 4)
        check_gradients(lambda: (a.mean(axis=0) ** 2).sum(), [a])

    def test_max(self, rng):
        # Perturb-safe: values spaced so eps never flips the argmax.
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 1.0, 3.0]]),
                   requires_grad=True)
        check_gradients(lambda: (a.max(axis=1) ** 2).sum(), [a])

    def test_clip_interior(self, rng):
        a = Tensor(np.array([0.2, 0.5, 0.7]), requires_grad=True)
        check_gradients(lambda: (a.clip(0.0, 1.0) ** 2).sum(), [a])


class TestActivationGradients:
    def test_tanh(self, rng):
        a = leaf(rng, 3, 3)
        check_gradients(lambda: tanh(a).sum(), [a])

    def test_relu_away_from_kink(self, rng):
        a = Tensor(rng.normal(size=(3, 3)) + 2.0, requires_grad=True)
        check_gradients(lambda: relu(a).sum(), [a])

    def test_sigmoid(self, rng):
        a = leaf(rng, 4)
        check_gradients(lambda: sigmoid(a).sum(), [a])

    def test_exp_log(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        check_gradients(lambda: a.exp().sum() + a.log().sum(), [a])

    def test_softmax(self, rng):
        a = leaf(rng, 2, 5)
        weights = Tensor(rng.normal(size=(2, 5)))
        check_gradients(lambda: (softmax(a) * weights).sum(), [a])


class TestStructuralGradients:
    def test_embedding(self, rng):
        weights = leaf(rng, 6, 3)
        idx = np.array([[0, 2], [5, 2]])
        check_gradients(lambda: (embedding_lookup(weights, idx) ** 2).sum(),
                        [weights])

    def test_concat(self, rng):
        a, b = leaf(rng, 2, 3), leaf(rng, 2, 2)
        check_gradients(lambda: (concat([a, b]) ** 2).sum(), [a, b])

    def test_stack(self, rng):
        a, b = leaf(rng, 3), leaf(rng, 3)
        check_gradients(lambda: (stack([a, b], axis=0) ** 2).sum(), [a, b])

    def test_where(self, rng):
        a, b = leaf(rng, 4), leaf(rng, 4)
        cond = np.array([True, False, True, False])
        check_gradients(lambda: (where(cond, a, b) ** 2).sum(), [a, b])

    def test_composed_expression(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        c = leaf(rng, 2)
        check_gradients(
            lambda: (tanh(a @ b) * c).mean() + sigmoid(a).sum() * 0.1,
            [a, b, c])
