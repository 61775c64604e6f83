"""Tests for the loss function."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, softmax
from repro.errors import ShapeError
from repro.nn import categorical_cross_entropy
from repro.nn.losses import one_hot


class TestCategoricalCrossEntropy:
    def test_matches_binary_for_two_classes(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        labels = np.array([0, 1])
        cce = categorical_cross_entropy(Tensor(probs), one_hot(labels, 2))
        p = probs[:, 1]
        bce = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))
        assert cce.item() == pytest.approx(bce)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            categorical_cross_entropy(Tensor(np.ones((2, 3))),
                                      np.ones((2, 2)))

    def test_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = one_hot(np.array([0, 2, 3]), 4)
        check_gradients(
            lambda: categorical_cross_entropy(softmax(logits), targets),
            [logits])


class TestOneHot:
    def test_encoding(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([3]), 3)

    def test_empty(self):
        assert one_hot(np.array([], dtype=int), 2).shape == (0, 2)
