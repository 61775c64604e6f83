"""Tests for the functional ops (forward behaviour)."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    concat,
    embedding_lookup,
    relu,
    sigmoid,
    softmax,
    stack,
    tanh,
    where,
)
from repro.errors import ShapeError


class TestActivations:
    def test_tanh_range(self):
        out = tanh(Tensor([-100.0, 0.0, 100.0]))
        np.testing.assert_allclose(out.data, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_relu(self):
        assert (relu(Tensor([-1.0, 0.0, 2.0])).data == [0, 0, 2]).all()

    def test_sigmoid_midpoint(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_sigmoid_saturation_no_overflow(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.isfinite(out.data).all()


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax(Tensor([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data.sum(axis=1), [1.0, 1.0])

    def test_shift_invariance(self):
        a = softmax(Tensor([[1.0, 2.0]]))
        b = softmax(Tensor([[1001.0, 1002.0]]))
        np.testing.assert_allclose(a.data, b.data)

    def test_extreme_logits_finite(self):
        out = softmax(Tensor([[1e4, -1e4]]))
        assert np.isfinite(out.data).all()


class TestEmbedding:
    def test_lookup_shape(self):
        weights = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(weights, np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 3)

    def test_lookup_values(self):
        weights = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(weights, np.array([2]))
        assert (out.data == [[6, 7, 8]]).all()

    def test_float_indices_rejected(self):
        with pytest.raises(ShapeError):
            embedding_lookup(Tensor(np.zeros((3, 2))), np.array([0.5]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            embedding_lookup(Tensor(np.zeros((3, 2))), np.array([3]))

    def test_non_2d_weights_rejected(self):
        with pytest.raises(ShapeError):
            embedding_lookup(Tensor(np.zeros(3)), np.array([0]))

    def test_repeated_index_grad_accumulates(self):
        weights = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = embedding_lookup(weights, np.array([1, 1]))
        out.sum().backward()
        assert (weights.grad[1] == [2, 2]).all()
        assert (weights.grad[0] == [0, 0]).all()


class TestConcatStack:
    def test_concat_last_axis(self):
        out = concat([Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))])
        assert out.shape == (2, 5)

    def test_concat_axis0(self):
        out = concat([Tensor(np.ones((2, 3))), Tensor(np.zeros((1, 3)))], axis=0)
        assert out.shape == (3, 3)

    def test_concat_empty_rejected(self):
        with pytest.raises(ShapeError):
            concat([])

    def test_concat_gradient_routes_to_parts(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        out = concat([a, b])
        out.backward(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        assert (a.grad == [[1, 2]]).all()
        assert (b.grad == [[3, 4, 5]]).all()

    def test_stack_new_axis(self):
        out = stack([Tensor(np.ones((2, 3)))] * 4, axis=1)
        assert out.shape == (2, 4, 3)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            stack([Tensor(np.ones(2)), Tensor(np.ones(3))])

    def test_stack_empty_rejected(self):
        with pytest.raises(ShapeError):
            stack([])

    def test_stack_gradient_splits(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        stack([a, b], axis=0).backward(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert (a.grad == [1, 2]).all()
        assert (b.grad == [3, 4]).all()


class TestWhere:
    def test_select(self):
        out = where(np.array([True, False]), Tensor([1.0, 1.0]),
                    Tensor([9.0, 9.0]))
        assert (out.data == [1, 9]).all()

    def test_gradient_masked(self):
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        where(np.array([True, False]), a, b).backward(np.array([1.0, 1.0]))
        assert (a.grad == [1, 0]).all()
        assert (b.grad == [0, 1]).all()

    def test_broadcast_condition(self):
        cond = np.array([[True], [False]])
        out = where(cond, Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3))))
        assert (out.data[0] == 1).all()
        assert (out.data[1] == 0).all()
