"""Finite-difference gradchecks for every fused sequence kernel, plus
thread isolation of the kernels' scratch buffers."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck_function
from repro.autograd.ops import softmax
from repro.errors import ShapeError
from repro.nn.kernels import (
    DenseSoftmaxBCEFunction,
    GRULevelFunction,
    LSTMLevelFunction,
    RNNLevelFunction,
    dense_softmax_bce,
    gru_level,
    lstm_level,
    rnn_level,
)
from repro.nn.losses import categorical_cross_entropy, one_hot

LEVELS = {
    "rnn": (RNNLevelFunction, 1),
    "lstm": (LSTMLevelFunction, 4),
    "gru": (GRULevelFunction, 3),
}

#: Mixed-liveness mask: a fully padded step, a partially padded step.
MASK = np.array([[True, True, False], [True, False, False]])


def _level_inputs(mult, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    w_x = Tensor(0.5 * rng.normal(size=(2, 3 * mult)), requires_grad=True)
    w_h = Tensor(0.5 * rng.normal(size=(3, 3 * mult)), requires_grad=True)
    b_h = Tensor(0.1 * rng.normal(size=(3 * mult,)), requires_grad=True)
    return x, w_x, w_h, b_h


class TestLevelKernelGradients:
    @pytest.mark.parametrize("cell", sorted(LEVELS))
    @pytest.mark.parametrize("mask", [None, MASK], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_gradcheck(self, cell, mask, reverse):
        function, mult = LEVELS[cell]
        gradcheck_function(function, (*_level_inputs(mult), mask, reverse))

    @pytest.mark.parametrize("cell", sorted(LEVELS))
    def test_constant_input_receives_no_gradient(self, cell):
        function, mult = LEVELS[cell]
        _, w_x, w_h, b_h = _level_inputs(mult)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 2)))
        out = function.apply(x, w_x, w_h, b_h, None, False)
        (out * out).sum().backward()
        assert x.grad is None
        assert all(p.grad is not None for p in (w_x, w_h, b_h))


class TestLevelKernelShapes:
    @pytest.mark.parametrize("level", [rnn_level, lstm_level, gru_level])
    def test_output_shape(self, level):
        mult = {rnn_level: 1, lstm_level: 4, gru_level: 3}[level]
        x, w_x, w_h, b_h = _level_inputs(mult)
        assert level(x, w_x, w_h, b_h).shape == (2, 3, 3)

    def test_bad_rank_rejected(self):
        x, w_x, w_h, b_h = _level_inputs(1)
        with pytest.raises(ShapeError):
            rnn_level(Tensor(np.ones((2, 3))), w_x, w_h, b_h)

    def test_bad_mask_shape_rejected(self):
        x, w_x, w_h, b_h = _level_inputs(1)
        with pytest.raises(ShapeError):
            rnn_level(x, w_x, w_h, b_h, mask=np.ones((2, 5), dtype=bool))


class TestDenseSoftmaxBCE:
    def _inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        targets = one_hot(rng.integers(0, 2, size=5), 2)
        return x, w, b, targets

    def test_gradcheck(self):
        gradcheck_function(DenseSoftmaxBCEFunction, self._inputs())

    def test_matches_graph_composition_exactly(self):
        """Bit-for-bit equal to Dense -> softmax -> categorical BCE."""
        x, w, b, targets = self._inputs()
        fused = dense_softmax_bce(x, w, b, targets)
        graph = categorical_cross_entropy(softmax(x @ w + b), targets)
        assert fused.item() == graph.item()

    def test_gradients_match_graph_composition(self):
        x, w, b, targets = self._inputs()
        dense_softmax_bce(x, w, b, targets).backward()
        fused_grads = [t.grad.copy() for t in (x, w, b)]
        for t in (x, w, b):
            t.zero_grad()
        categorical_cross_entropy(softmax(x @ w + b), targets).backward()
        for fused_grad, t in zip(fused_grads, (x, w, b)):
            np.testing.assert_allclose(fused_grad, t.grad, rtol=1e-12, atol=1e-15)

    def test_target_shape_mismatch_rejected(self):
        x, w, b, _ = self._inputs()
        with pytest.raises(ShapeError):
            dense_softmax_bce(x, w, b, np.zeros((5, 3)))

    def test_scalar_loss(self):
        x, w, b, targets = self._inputs()
        loss = dense_softmax_bce(x, w, b, targets)
        assert loss.size == 1 and np.isfinite(loss.item())


class TestScratchIsolation:
    def test_concurrent_threads_do_not_corrupt_scratch(self):
        """Two application threads hammer different shapes concurrently;
        thread-local scratch keeps every result equal to a quiet run."""
        shapes = [(9, 7), (13, 5)]

        def forward(shape, seed):
            rng = np.random.default_rng(seed)
            batch, n_steps = shape
            x = Tensor(rng.normal(size=(batch, n_steps, 3)))
            w_x = Tensor(0.5 * rng.normal(size=(3, 20)))
            w_h = Tensor(0.5 * rng.normal(size=(5, 20)))
            b_h = Tensor(0.1 * rng.normal(size=(20,)))
            mask = np.ones(shape, dtype=bool)
            return lstm_level(x, w_x, w_h, b_h, mask=mask).data.copy()

        references = [forward(shape, seed)
                      for seed, shape in enumerate(shapes)]
        results = [[] for _ in shapes]
        barrier = threading.Barrier(len(shapes))

        def worker(index):
            barrier.wait()
            for _ in range(25):
                results[index].append(forward(shapes[index], index))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(shapes))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for reference, outs in zip(references, results):
            for out in outs:
                np.testing.assert_array_equal(out, reference)
