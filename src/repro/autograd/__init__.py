"""A small reverse-mode automatic-differentiation engine on numpy.

The paper's models (Eq. 1-4, Figure 5) need embeddings, tanh RNN
recurrences, dense layers, batch normalisation, softmax and binary
cross-entropy.  This subpackage provides the differentiable tensor type and
the operations required to express all of them, plus a finite-difference
gradient checker used extensively by the test suite.

Public API
----------
:class:`~repro.autograd.tensor.Tensor`
    The differentiable array type; supports ``+ - * / @``, broadcasting,
    slicing, reductions and the activation functions used by the models.
:mod:`~repro.autograd.ops`
    Functional forms (``tanh``, ``relu``, ``sigmoid``, ``softmax``,
    ``embedding_lookup``, ``concat``, ...).
:func:`~repro.autograd.gradcheck.check_gradients`
    Finite-difference validation of the analytic gradients.
:class:`~repro.autograd.function.Function`
    Base class for custom ops with hand-derived backwards (one autograd
    node per op, however large), with
    :func:`~repro.autograd.function.gradcheck_function` for validation.
"""

from repro.autograd.function import Function, FunctionCtx, gradcheck_function
from repro.autograd.gradcheck import check_gradients
from repro.autograd.ops import (
    concat,
    embedding_lookup,
    relu,
    sigmoid,
    softmax,
    stack,
    tanh,
    where,
)
from repro.autograd.tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "check_gradients",
    "Function",
    "FunctionCtx",
    "gradcheck_function",
    "concat",
    "embedding_lookup",
    "relu",
    "sigmoid",
    "softmax",
    "stack",
    "tanh",
    "where",
]
