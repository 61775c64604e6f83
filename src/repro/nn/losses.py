"""The loss function.

The paper (Section 5.2) trains with binary cross-entropy on a two-way
softmax output: the categorical cross-entropy of that softmax against
one-hot labels.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.errors import ShapeError


def categorical_cross_entropy(probabilities: Tensor, targets_onehot: np.ndarray,
                              epsilon: float = 1e-12) -> Tensor:
    """Mean categorical cross-entropy of a probability distribution.

    Parameters
    ----------
    probabilities:
        Softmax output, shape ``(batch, n_classes)``.
    targets_onehot:
        One-hot labels of the same shape.
    """
    targets_onehot = np.asarray(targets_onehot, dtype=np.float64)
    if targets_onehot.shape != probabilities.shape:
        raise ShapeError(
            f"targets shape {targets_onehot.shape} does not match "
            f"probabilities shape {probabilities.shape}"
        )
    clipped = probabilities.clip(epsilon, 1.0)
    per_sample = -(Tensor(targets_onehot) * clipped.log()).sum(axis=-1)
    return per_sample.mean()


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot encode integer labels into ``(len(labels), n_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ShapeError(f"labels must lie in [0, {n_classes})")
    encoded = np.zeros((labels.shape[0], n_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
