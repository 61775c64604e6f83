"""Gradient checks for paths the main suites leave uncovered.

Gated cells through a *nonzero* recurrent state: the cell suites start
from ``initial_state``, where ``h_prev @ w_h`` is zero and ``w_h`` gets
a vanishing-by-construction gradient.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import (
    BidirectionalRNN,
    GRUCell,
    LSTMCell,
    StackedRNN,
    use_backend,
)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestGatedRecurrentStateGradients:
    """Chain two steps so the second sees a nonzero ``h_prev`` (and, for
    LSTM, ``c_prev``) -- the only way ``w_h`` receives real gradient."""

    @pytest.mark.parametrize("cell_cls", [LSTMCell, GRUCell])
    def test_chained_steps_gradcheck(self, rng, cell_cls):
        cell = cell_cls(2, 3, rng)
        x0, x1 = leaf(rng, 2, 2), leaf(rng, 2, 2)

        def fn():
            state = cell.step(x0, cell.initial_state(2))
            return (cell.step(x1, state) ** 2).sum()

        check_gradients(fn, [x0, x1] + cell.parameters())
        assert np.abs(cell.w_h.grad).max() > 0.0

    @pytest.mark.parametrize("cell_cls", [LSTMCell, GRUCell])
    def test_gradient_flows_into_initial_state(self, rng, cell_cls):
        cell = cell_cls(2, 3, rng)
        state0 = leaf(rng, 2, 3 * cell.state_multiplier)
        x = leaf(rng, 2, 2)
        check_gradients(lambda: (cell.step(x, state0) ** 2).sum(),
                        [x, state0])

    @pytest.mark.parametrize("cell_type", ["lstm", "gru"])
    def test_bidirectional_masked_gradcheck(self, rng, cell_type):
        birnn = BidirectionalRNN(2, 3, rng, cell_type=cell_type)
        x = leaf(np.random.default_rng(0), 2, 4, 2)
        mask = np.array([[True, True, True, False],
                         [True, True, False, False]])
        check_gradients(lambda: (birnn(x, mask=mask) ** 2).sum(),
                        [x] + birnn.parameters())

    @pytest.mark.parametrize("cell_type", ["lstm", "gru"])
    def test_graph_backend_masked_gradcheck(self, rng, cell_type):
        """The per-step graph route, with padding -- the fused kernel
        suite covers the other backend."""
        rnn = StackedRNN(2, 3, rng, num_layers=2, cell_type=cell_type)
        x = leaf(np.random.default_rng(1), 2, 4, 2)
        mask = np.array([[True, True, False, False],
                         [True, True, True, True]])
        with use_backend("graph"):
            check_gradients(lambda: (rnn(x, mask=mask) ** 2).sum(),
                            [x] + rnn.parameters())
