"""Functional autograd operations built on :class:`~repro.autograd.tensor.Tensor`.

These cover every operation the paper's architectures need beyond basic
arithmetic: activations, numerically stable softmax, embedding
lookup, concatenation and stacking.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.autograd.tensor import Tensor


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent (the paper's RNN activation, Eq. 2/4)."""
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * (1.0 - data ** 2))

    return Tensor.from_op(data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit (dense layers of Figure 5)."""
    data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * (x.data > 0.0))

    return Tensor.from_op(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    data = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * data * (1.0 - data))

    return Tensor.from_op(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (final layer of Figure 5)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * data).sum(axis=axis, keepdims=True)
            x.accumulate_grad(data * (grad - dot))

    return Tensor.from_op(data, (x,), backward)


def embedding_lookup(weights: Tensor, indices: np.ndarray) -> Tensor:
    """Gather embedding rows: output ``indices.shape + (embed_dim,)``.

    This is the character-embedding layer of Section 3.1: indices address
    rows of the trainable ``weights`` matrix.
    """
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        raise ShapeError(f"embedding indices must be integers, got dtype {indices.dtype}")
    if weights.data.ndim != 2:
        raise ShapeError(f"embedding weights must be 2-d, got shape {weights.shape}")
    vocab_size = weights.data.shape[0]
    if indices.size and (indices.min() < 0 or indices.max() >= vocab_size):
        raise ShapeError(
            f"embedding index out of range [0, {vocab_size}): "
            f"min={indices.min()}, max={indices.max()}"
        )
    data = weights.data[indices]

    def backward(grad: np.ndarray) -> None:
        if not weights.requires_grad:
            return
        if weights.grad is None:
            weights.grad = np.zeros_like(weights.data)
        flat_idx = indices.reshape(-1)
        if not flat_idx.size:
            return
        # Sorted segment-sum scatter: repeated indices are grouped and
        # reduced per row, which is much faster than np.add.at's
        # element-wise buffered loop on large batches.
        order = np.argsort(flat_idx, kind="stable")
        sorted_idx = flat_idx[order]
        sorted_grad = grad.reshape(-1, weights.data.shape[1])[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_idx)) + 1))
        weights.grad[sorted_idx[starts]] += np.add.reduceat(
            sorted_grad, starts, axis=0)

    return Tensor.from_op(data, (weights,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (joins forward/backward RNN paths)."""
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor.accumulate_grad(grad[tuple(slicer)])

    return Tensor.from_op(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equally-shaped tensors along a new axis."""
    if not tensors:
        raise ShapeError("stack requires at least one tensor")
    shapes = {t.data.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"stack requires equal shapes, got {sorted(map(str, shapes))}")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor.accumulate_grad(np.squeeze(piece, axis=axis))

    return Tensor.from_op(data, tuple(tensors), backward)


def where(condition: np.ndarray, if_true: Tensor, if_false: Tensor) -> Tensor:
    """Elementwise select: ``condition ? if_true : if_false``.

    ``condition`` is a plain boolean array (no gradient flows through it).
    """
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, if_true.data, if_false.data)

    def backward(grad: np.ndarray) -> None:
        from repro.autograd.tensor import unbroadcast
        if if_true.requires_grad:
            if_true.accumulate_grad(unbroadcast(grad * condition, if_true.data.shape))
        if if_false.requires_grad:
            if_false.accumulate_grad(unbroadcast(grad * ~condition, if_false.data.shape))

    return Tensor.from_op(data, (if_true, if_false), backward)
