"""Gated recurrent cells: LSTM and GRU.

The paper's related-work section positions plain tanh RNNs against LSTM
(Hochreiter & Schmidhuber 1997) and GRU (Chung et al. 2014): "RNNs are
less complex and therefore do need not as much time for training."  These
cells let the ablation benchmarks quantify that trade-off on the error
detection task -- same stacked/bidirectional wrappers, different
recurrence.

Both cells expose the :class:`~repro.nn.layers.rnn.RNNCell` interface
(``step_projected`` + ``initial_state`` for the ``"graph"`` backend,
``level_function`` for the fused whole-sequence kernels) so
:class:`StackedRNN` and :class:`BidirectionalRNN` can run them unchanged
via the ``cell_type`` argument of :func:`make_cell`.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, concat, sigmoid, tanh
from repro.errors import ConfigurationError
from repro.nn import kernels
from repro.nn.init import glorot_uniform, orthogonal, zeros
from repro.nn.module import Module, Parameter


class LSTMCell(Module):
    """Long Short-Term Memory cell (input/forget/cell/output gates).

    The public hidden state is ``h``; the cell state ``c`` is carried
    internally by packing ``[h, c]`` into one state tensor so that the
    stacked/bidirectional wrappers stay state-shape agnostic.

    Parameters
    ----------
    input_dim, units:
        Input and hidden widths.
    rng:
        Random generator (Glorot input kernels, orthogonal recurrent).
    forget_bias:
        Initial forget-gate bias (1.0 helps gradient flow early on).
    """

    #: Width multiplier of the packed state ([h, c]).
    state_multiplier = 2

    #: Fused whole-level kernel (see :attr:`RNNCell.level_function`).
    level_function = kernels.LSTMLevelFunction

    def __init__(self, input_dim: int, units: int, rng: np.random.Generator,
                 forget_bias: float = 1.0):
        super().__init__()
        if input_dim < 1 or units < 1:
            raise ConfigurationError(
                f"input_dim and units must be >= 1, got {input_dim}, {units}"
            )
        self.input_dim = input_dim
        self.units = units
        # One fused kernel for the four gates: i, f, g, o.
        self.w_x = Parameter(glorot_uniform(rng, (input_dim, 4 * units)),
                             name="lstm.w_x")
        self.w_h = Parameter(
            np.concatenate([orthogonal(rng, (units, units)) for _ in range(4)],
                           axis=1),
            name="lstm.w_h")
        bias = zeros((4 * units,))
        bias[units:2 * units] = forget_bias
        self.b_h = Parameter(bias, name="lstm.b_h")

    def initial_state(self, batch_size: int) -> Tensor:
        """Packed ``[h, c]`` zeros of width ``2 * units``."""
        return Tensor(np.zeros((batch_size, 2 * self.units)))

    def output(self, state: Tensor) -> Tensor:
        """The externally visible hidden state ``h``."""
        return state[:, :self.units]

    def step(self, x_t: Tensor, state: Tensor) -> Tensor:
        """Full step (projects the input internally)."""
        return self.step_projected(x_t @ self.w_x + self.b_h, state)

    def step_projected(self, proj_t: Tensor, state: Tensor) -> Tensor:
        """One LSTM step from a precomputed input projection."""
        units = self.units
        h_prev = state[:, :units]
        c_prev = state[:, units:]
        gates = proj_t + h_prev @ self.w_h
        i = sigmoid(gates[:, :units])
        f = sigmoid(gates[:, units:2 * units])
        g = tanh(gates[:, 2 * units:3 * units])
        o = sigmoid(gates[:, 3 * units:])
        c = f * c_prev + i * g
        h = o * tanh(c)
        return concat([h, c], axis=-1)


class GRUCell(Module):
    """Gated Recurrent Unit cell (update/reset gates).

    State is just ``h`` (no separate cell state), so the packed-state
    multiplier is 1.
    """

    state_multiplier = 1

    #: Fused whole-level kernel (see :attr:`RNNCell.level_function`).
    level_function = kernels.GRULevelFunction

    def __init__(self, input_dim: int, units: int, rng: np.random.Generator):
        super().__init__()
        if input_dim < 1 or units < 1:
            raise ConfigurationError(
                f"input_dim and units must be >= 1, got {input_dim}, {units}"
            )
        self.input_dim = input_dim
        self.units = units
        # Fused kernels for z (update), r (reset), n (candidate).
        self.w_x = Parameter(glorot_uniform(rng, (input_dim, 3 * units)),
                             name="gru.w_x")
        self.w_h = Parameter(
            np.concatenate([orthogonal(rng, (units, units)) for _ in range(3)],
                           axis=1),
            name="gru.w_h")
        self.b_h = Parameter(zeros((3 * units,)), name="gru.b_h")

    def initial_state(self, batch_size: int) -> Tensor:
        """All-zeros hidden state."""
        return Tensor(np.zeros((batch_size, self.units)))

    def output(self, state: Tensor) -> Tensor:
        """GRU state is the output."""
        return state

    def step(self, x_t: Tensor, state: Tensor) -> Tensor:
        """Full step (projects the input internally)."""
        return self.step_projected(x_t @ self.w_x + self.b_h, state)

    def step_projected(self, proj_t: Tensor, h_prev: Tensor) -> Tensor:
        """One GRU step from a precomputed input projection."""
        units = self.units
        rec = h_prev @ self.w_h
        z = sigmoid(proj_t[:, :units] + rec[:, :units])
        r = sigmoid(proj_t[:, units:2 * units] + rec[:, units:2 * units])
        n = tanh(proj_t[:, 2 * units:] + r * rec[:, 2 * units:])
        return z * h_prev + (1.0 - z) * n
