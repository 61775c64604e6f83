"""The differentiable :class:`Tensor` type.

A tensor wraps a numpy array and, when ``requires_grad`` is set, records
the operation that produced it so that :meth:`Tensor.backward` can
propagate gradients through the computation graph with a single reverse
topological sweep.

Broadcasting follows numpy semantics; gradients of broadcast operands are
summed back to the operand's original shape (:func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.errors import GraphError, ShapeError


class _GradMode(threading.local):
    enabled = True      # per thread, on in every new thread


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording (inference mode)
    in the calling thread."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def grad_enabled() -> bool:
    """Whether operations in the calling thread record the autodiff graph."""
    return _grad_mode.enabled


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_array(value: Any) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy-backed array that supports reverse-mode differentiation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        When ``True``, operations on this tensor are recorded and
        :meth:`backward` will populate :attr:`grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")

    def __init__(self, data: Any, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> Tensor:
        """A tensor of zeros."""
        return cls(np.zeros(shape), requires_grad=requires_grad)

    @classmethod
    def ones(cls, *shape: int, requires_grad: bool = False) -> Tensor:
        """A tensor of ones."""
        return cls(np.ones(shape), requires_grad=requires_grad)

    @classmethod
    def from_op(cls, data: np.ndarray, parents: Sequence[Tensor],
                backward: Callable[[np.ndarray], None]) -> Tensor:
        """Create an op output node.

        Records ``backward`` only when grad mode is on and some parent
        requires gradients; otherwise the result is a detached constant.
        """
        requires = _grad_mode.enabled and any(p.requires_grad
                                              for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic protocol ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def item(self) -> float:
        """The value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self) -> float:
        raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """The underlying numpy array (not a copy; treat as read-only)."""
        return self.data

    def detach(self) -> Tensor:
        """A tensor sharing this data but cut out of the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # -- gradient accumulation ----------------------------------------------------

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Clear the gradient buffer."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  May be omitted only for single-element
            tensors, in which case it defaults to 1.
        """
        if not self.requires_grad:
            raise GraphError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GraphError(
                    "backward() without an explicit gradient requires a scalar output, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        order = self._topological_order()
        self.accumulate_grad(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> list[Tensor]:
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other: Any) -> Tensor:
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: Any) -> Tensor:
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other.accumulate_grad(unbroadcast(grad, other.data.shape))

        return Tensor.from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> Tensor:
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(-grad)

        return Tensor.from_op(-self.data, (self,), backward)

    def __sub__(self, other: Any) -> Tensor:
        return self + (-self._coerce(other))

    def __rsub__(self, other: Any) -> Tensor:
        return self._coerce(other) + (-self)

    def __mul__(self, other: Any) -> Tensor:
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other.accumulate_grad(unbroadcast(grad * self.data, other.data.shape))

        return Tensor.from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> Tensor:
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other.accumulate_grad(unbroadcast(
                    -grad * self.data / (other.data ** 2), other.data.shape))

        return Tensor.from_op(data, (self, other), backward)

    def __rtruediv__(self, other: Any) -> Tensor:
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> Tensor:
        if not isinstance(exponent, (int, float)):
            raise ShapeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor.from_op(data, (self,), backward)

    def __matmul__(self, other: Any) -> Tensor:
        other = self._coerce(other)
        if self.data.ndim < 1 or other.data.ndim < 1:
            raise ShapeError("matmul requires at least 1-d operands")
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            # Promote 1-d operands to matrices, mirroring numpy's matmul
            # semantics, so one code path covers every dimension mix.
            grad_m = grad
            a_m, b_m = a, b
            if b.ndim == 1:
                b_m = b[:, None]
                grad_m = grad_m[..., None]
            if a.ndim == 1:
                a_m = a[None, :]
                grad_m = grad_m[..., None, :]
            if self.requires_grad:
                grad_a = grad_m @ np.swapaxes(b_m, -1, -2)
                if a.ndim == 1:
                    grad_a = np.squeeze(grad_a, -2)
                self.accumulate_grad(unbroadcast(grad_a, a.shape))
            if other.requires_grad:
                grad_b = np.swapaxes(a_m, -1, -2) @ grad_m
                if b.ndim == 1:
                    grad_b = np.squeeze(grad_b, -1)
                other.accumulate_grad(unbroadcast(grad_b, b.shape))

        return Tensor.from_op(data, (self, other), backward)

    # -- shape manipulation ------------------------------------------------------

    def reshape(self, *shape: int) -> Tensor:
        """Return a reshaped view of this tensor."""
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad.reshape(original))

        return Tensor.from_op(data, (self,), backward)

    def transpose(self, *axes: int) -> Tensor:
        """Permute dimensions (all axes must be given, or none for reverse)."""
        order = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(order)
        data = self.data.transpose(order)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad.transpose(inverse))

        return Tensor.from_op(data, (self,), backward)

    def __getitem__(self, key: Any) -> Tensor:
        data = self.data[key]
        # Basic indexing (ints/slices only) selects disjoint positions, so
        # the scatter in backward can use plain slice-assignment; fancy
        # (array) indexing may repeat positions and needs np.add.at.
        parts = key if isinstance(key, tuple) else (key,)
        is_basic = all(isinstance(p, (int, slice, type(Ellipsis))) for p in parts)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # Scatter straight into the gradient buffer: allocating a
                # full-shape temporary per slice would make per-time-step
                # RNN slicing quadratic in sequence length.
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                if is_basic:
                    self.grad[key] += grad
                else:
                    np.add.at(self.grad, key, grad)

        return Tensor.from_op(data, (self,), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> Tensor:
        """Sum over the given axes."""
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self.accumulate_grad(np.broadcast_to(g, self.data.shape).copy())

        return Tensor.from_op(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> Tensor:
        """Arithmetic mean over the given axes."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int, keepdims: bool = False) -> Tensor:
        """Maximum along one axis; gradient flows to the (first) argmax."""
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad if keepdims else np.expand_dims(grad, axis)
            maxed = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == maxed)
            # Split gradient evenly among ties to stay a valid subgradient.
            mask = mask / mask.sum(axis=axis, keepdims=True)
            self.accumulate_grad(mask * expanded)

        return Tensor.from_op(data, (self,), backward)

    # -- pointwise nonlinearities (methods; functional forms live in ops.py) ----

    def exp(self) -> Tensor:
        """Elementwise exponential."""
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad * data)

        return Tensor.from_op(data, (self,), backward)

    def log(self) -> Tensor:
        """Elementwise natural logarithm."""
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(grad / self.data)

        return Tensor.from_op(data, (self,), backward)

    def sqrt(self) -> Tensor:
        """Elementwise square root."""
        return self ** 0.5

    def clip(self, low: float, high: float) -> Tensor:
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self.accumulate_grad(grad * inside)

        return Tensor.from_op(data, (self,), backward)
