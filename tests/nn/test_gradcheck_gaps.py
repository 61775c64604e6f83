"""Gradient checks for paths the main suites leave uncovered.

Two gaps: dropout (train-mode masks are stochastic, so no suite
gradchecked them), and gated cells through a *nonzero* recurrent state
(the cell suites start from ``initial_state``, where ``h_prev @ w_h`` is
zero and ``w_h`` gets a vanishing-by-construction gradient).
"""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.nn import (
    BidirectionalRNN,
    Dropout,
    GRUCell,
    LSTMCell,
    StackedRNN,
    use_backend,
)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestDropoutGradients:
    def test_train_mode_gradcheck_with_fixed_mask(self, rng):
        """Re-seeding inside ``fn`` pins the mask, making dropout
        deterministic across the finite-difference evaluations."""
        layer = Dropout(0.4, np.random.default_rng(7))
        x = leaf(rng, 4, 3)

        def fn():
            layer._rng = np.random.default_rng(7)
            return (layer(x) ** 2).sum()

        check_gradients(fn, [x])

    def test_eval_mode_gradient_is_identity(self, rng):
        layer = Dropout(0.9, rng).eval()
        x = leaf(rng, 3, 2)
        layer(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_train_mode_grad_zero_exactly_on_dropped(self, rng):
        """The backward mask equals the forward mask: dropped activations
        get exactly zero gradient, kept ones get the inverted scale."""
        layer = Dropout(0.5, np.random.default_rng(3))
        x = leaf(rng, 6, 5)
        layer._rng = np.random.default_rng(3)
        out = layer(x)
        out.sum().backward()
        dropped = out.data == 0.0
        assert dropped.any() and not dropped.all()
        assert (x.grad[dropped] == 0.0).all()
        np.testing.assert_allclose(x.grad[~dropped], 2.0)

    def test_zero_rate_gradcheck_without_reseeding(self, rng):
        layer = Dropout(0.0, rng)
        x = leaf(rng, 3, 3)
        check_gradients(lambda: (layer(x) ** 2).sum(), [x])


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
