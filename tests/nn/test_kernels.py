"""Finite-difference gradchecks for every fused sequence kernel on packed
sequences, the packing plan's contract, and the kernels' scratch buffers
(thread isolation and a bound on what they hold)."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck_function, no_grad
from repro.autograd.function import FunctionCtx
from repro.autograd.ops import softmax
from repro.errors import ShapeError
from repro.nn import StackedRNN, use_backend
from repro.nn.kernels import (
    DenseSoftmaxBCEFunction,
    GRULevelFunction,
    LSTMLevelFunction,
    PrefixPlan,
    RNNLevelFunction,
    SequencePlan,
    _scratch,
    dense_softmax_bce,
)
from repro.nn.losses import categorical_cross_entropy, one_hot

LEVELS = {
    "rnn": (RNNLevelFunction, 1),
    "lstm": (LSTMLevelFunction, 4),
    "gru": (GRULevelFunction, 3),
}


def _prefix_mask(*lengths, n_steps=3):
    return np.arange(n_steps) < np.array(lengths)[:, None]


#: Packing plans: ``(batch, mask)``.  "masked" has a step where only one
#: row is live (the padded-GEMM-row case) and a step live for no row;
#: "empty_value" has a length-1 row, as the value mask makes of an
#: empty value.
PLANS = {
    "unmasked": (2, None),  # rows of equal length
    "masked": (2, _prefix_mask(2, 1)),
    "one_row": (1, _prefix_mask(3)),
    "empty_value": (3, _prefix_mask(3, 1, 2)),
}


def _level_inputs(mult, plan_id="masked", seed=0):
    rng = np.random.default_rng(seed)
    batch, mask = PLANS[plan_id]
    plan = SequencePlan(mask, (batch, 3))
    x = Tensor(rng.normal(size=(plan.n_packed, 2)), requires_grad=True)
    w_x = Tensor(0.5 * rng.normal(size=(2, 3 * mult)), requires_grad=True)
    w_h = Tensor(0.5 * rng.normal(size=(3, 3 * mult)), requires_grad=True)
    b_h = Tensor(0.1 * rng.normal(size=(3 * mult,)), requires_grad=True)
    return x, w_x, w_h, b_h, plan


class TestLevelKernelGradients:
    @pytest.mark.parametrize("cell", sorted(LEVELS))
    @pytest.mark.parametrize("plan_id", sorted(PLANS))
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_gradcheck(self, cell, plan_id, reverse):
        function, mult = LEVELS[cell]
        gradcheck_function(function,
                           (*_level_inputs(mult, plan_id), reverse))

    @pytest.mark.parametrize("cell", sorted(LEVELS))
    def test_constant_input_receives_no_gradient(self, cell):
        function, mult = LEVELS[cell]
        _, w_x, w_h, b_h, plan = _level_inputs(mult)
        x = Tensor(np.random.default_rng(1).normal(size=(plan.n_packed, 2)))
        out = function.apply(x, w_x, w_h, b_h, plan, False)
        (out * out).sum().backward()
        assert x.grad is None
        assert all(p.grad is not None for p in (w_x, w_h, b_h))


def _prefix_plan():
    """Five right-padded code rows sharing prefixes, one a duplicate."""
    codes = np.array([[1, 2, 3, 0], [1, 2, 0, 0], [1, 2, 4, 1],
                      [5, 0, 0, 0], [1, 2, 3, 0]])
    return PrefixPlan(codes, np.array([3, 2, 4, 1, 3]))


#: Tables only the gated kernels' backwards read.
BACKWARD_ONLY = {"lstm": ("acts", "tanh_c"), "gru": ("gates", "rec_n")}


@pytest.mark.equivalence
class TestNoGradForward:
    """Scoring runs the level forwards under ``no_grad``; they skip the
    tables only the backward reads, and their outputs keep every bit."""

    @pytest.mark.parametrize("cell", sorted(BACKWARD_ONLY))
    @pytest.mark.parametrize("plan_kind", ["sequence", "prefix"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_no_grad_forward_is_byte_equal_and_keeps_no_tables(
            self, cell, plan_kind, reverse):
        function, mult = LEVELS[cell]
        x, w_x, w_h, b_h, plan = _level_inputs(mult, "empty_value")
        if plan_kind == "prefix":
            plan = _prefix_plan()
            x = Tensor(np.random.default_rng(2).normal(
                size=(plan.n_packed, 2)), requires_grad=True)
        args = (x, w_x, w_h, b_h, plan, reverse)
        recorded = function.apply(*args)
        with no_grad():
            scored = function.apply(*args)
            ctx = FunctionCtx((True,) * 4)
            direct = function.forward(ctx, *(
                a.data if isinstance(a, Tensor) else a for a in args))
        assert recorded.requires_grad and not scored.requires_grad
        assert scored.data.tobytes() == recorded.data.tobytes()
        assert direct.tobytes() == recorded.data.tobytes()
        for name in BACKWARD_ONLY[cell]:
            assert getattr(ctx, name, None) is None, name

        grad_ctx = FunctionCtx((True,) * 4)
        function.forward(grad_ctx, *(
            a.data if isinstance(a, Tensor) else a for a in args))
        for name in BACKWARD_ONLY[cell]:
            assert getattr(grad_ctx, name) is not None, name


class TestLevelKernelShapes:
    @pytest.mark.parametrize("cell", sorted(LEVELS))
    def test_output_shape(self, cell):
        function, mult = LEVELS[cell]
        x, w_x, w_h, b_h, plan = _level_inputs(mult)
        assert plan.n_packed == 3
        assert function.apply(x, w_x, w_h, b_h, plan).shape == (3, 3)

    def test_bad_rank_rejected(self):
        _, w_x, w_h, b_h, plan = _level_inputs(1)
        with pytest.raises(ShapeError):
            RNNLevelFunction.apply(Tensor(np.ones((2, 3, 2))), w_x, w_h, b_h,
                                   plan)

    def test_bad_mask_shape_rejected(self):
        with pytest.raises(ShapeError):
            SequencePlan(np.ones((2, 5), dtype=bool), (2, 3))


class TestSequencePlan:
    def test_layout_is_time_major_by_descending_length(self):
        plan = SequencePlan(_prefix_mask(1, 3, 2), (3, 3))
        x = np.arange(9.0).reshape(3, 3, 1)  # value = 3 * row + step
        packed = plan.pack(Tensor(x)).data.ravel()
        # step 0: rows 1, 2, 0; step 1: rows 1, 2; step 2: row 1
        np.testing.assert_array_equal(packed, [3, 6, 0, 4, 7, 5])

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_unpack_carries_padded_steps(self, reverse):
        plan = SequencePlan(_prefix_mask(1, 3, 0), (3, 3))
        packed = Tensor(np.arange(1.0, 5.0).reshape(4, 1))
        steps = plan.unpack(packed, reverse).data[..., 0]
        # packed: step 0 -> rows 1, 0; step 1 -> row 1; step 2 -> row 1
        if reverse:
            expected = [[2, 0, 0], [1, 3, 4], [0, 0, 0]]
        else:
            expected = [[2, 2, 2], [1, 3, 4], [0, 0, 0]]
        np.testing.assert_array_equal(steps, expected)
        np.testing.assert_array_equal(
            plan.final_states(packed, reverse).data[:, 0],
            steps[:, 0 if reverse else -1])

    def test_non_prefix_mask_rejected_on_fused_path_only(self):
        rnn = StackedRNN(2, 3, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 2)))
        holes = np.array([[True, False, True], [True, True, False]])
        with use_backend("fused"), pytest.raises(ShapeError):
            rnn(x, mask=holes)
        with use_backend("graph"):
            assert rnn(x, mask=holes).shape == (2, 3)


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


def _stacked_step(batch, lengths, seed=0):
    """A forward + backward of a small LSTM stack with ragged lengths."""
    rng = np.random.default_rng(seed)
    n_steps = int(lengths.max())
    rnn = StackedRNN(3, 5, rng, cell_type="lstm")
    x = Tensor(rng.normal(size=(batch, n_steps, 3)), requires_grad=True)
    with use_backend("fused"):
        final = rnn(x, mask=np.arange(n_steps) < lengths[:, None])
        (final ** 2).sum().backward()
    return final.data.copy()


class TestScratchIsolation:
    def test_concurrent_threads_do_not_corrupt_scratch(self):
        """Two application threads hammer different shapes concurrently;
        thread-local scratch keeps every result equal to a quiet run."""
        shapes = [(9, 7), (13, 5)]

        def forward(shape, seed):
            rng = np.random.default_rng(seed)
            batch, n_steps = shape
            x = Tensor(rng.normal(size=(batch * n_steps, 3)))
            w_x = Tensor(0.5 * rng.normal(size=(3, 20)))
            w_h = Tensor(0.5 * rng.normal(size=(5, 20)))
            b_h = Tensor(0.1 * rng.normal(size=(20,)))
            plan = SequencePlan(np.ones(shape, dtype=bool), shape)
            return LSTMLevelFunction.apply(x, w_x, w_h, b_h, plan).data.copy()

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
            thread.join(timeout=60)
            assert not thread.is_alive()
        for reference, outs in zip(references, results):
            for out in outs:
                np.testing.assert_array_equal(out, reference)


class TestScratchBound:
    def test_pool_holds_no_more_than_the_largest_request(self):
        """Many distinct batch widths leave the pool no bigger than the
        largest one alone does: buffers grow, they do not pile up."""
        rng = np.random.default_rng(4)
        shapes = [(batch, rng.integers(1, width + 1, size=batch))
                  for batch in (3, 5, 8) for width in range(1, 13)]
        largest = (8, np.full(8, 12))
        held = {}

        def run(name, batches):
            for batch, lengths in batches:
                _stacked_step(batch, lengths)
            held[name] = sum(a.nbytes for a in _scratch._arrays.values())

        for name, batches in (("many", shapes + [largest]),
                              ("largest", [largest])):
            # A fresh thread starts with an empty thread-local pool.
            thread = threading.Thread(target=run, args=(name, batches))
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert held["many"] == held["largest"]

    def test_results_do_not_depend_on_earlier_calls(self):
        """Reused (larger) buffers hold stale data; results must not."""
        lengths = np.array([4, 1, 3])
        quiet = _stacked_step(3, lengths)
        _stacked_step(8, np.full(8, 12), seed=1)
        np.testing.assert_array_equal(_stacked_step(3, lengths), quiet)
