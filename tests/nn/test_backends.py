"""Backend selection and fused-vs-graph equivalence.

The fused kernels must be bit-for-bit equivalent to the per-step graph
reference in forward values and agree (to float accumulation order) in
gradients, across cell types x masked/unmasked x forward/backward
direction -- otherwise the table/figure reproductions would depend on the
active backend.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ConfigurationError
from repro.models.config import ModelConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.models.tsb_rnn import TSBRNN
from repro.nn import BidirectionalRNN, StackedRNN, use_backend
from repro.nn.backend import (
    BACKENDS,
    BACKEND_ENV_VAR,
    get_backend,
    reset_backend,
    set_backend,
)
from repro.nn.layers.rnn import CELL_TYPES

#: Mixed mask: one row fully live, one truncated, plus a fully dead step.
MASK = np.array([[True, True, True, True, False, False],
                 [True, True, False, False, False, False],
                 [True, True, True, True, True, True]])


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


class TestBackendSelection:
    def test_default_is_fused(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        reset_backend()
        assert get_backend() == "fused"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "graph")
        reset_backend()
        assert get_backend() == "graph"

    def test_set_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "graph")
        reset_backend()
        set_backend("fused")
        assert get_backend() == "fused"

    def test_use_backend_restores(self):
        set_backend("fused")
        with use_backend("graph"):
            assert get_backend() == "graph"
        assert get_backend() == "fused"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            set_backend("tpu")

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        reset_backend()
        with pytest.raises(ConfigurationError):
            get_backend()

    def test_known_backends(self):
        assert BACKENDS == ("fused", "graph")


def _stacked_loss_and_grads(backend, cell_type, mask, reverse, x_data):
    """One training-style pass; returns (final, step values, loss, grads)."""
    rnn = StackedRNN(4, 5, np.random.default_rng(7), num_layers=2,
                     reverse=reverse, cell_type=cell_type)
    x = Tensor(x_data.copy(), requires_grad=True)
    with use_backend(backend):
        final, steps = rnn.run(x, mask=mask)
        loss = (final ** 2).sum()
        for step in steps:  # exercise per-step output gradients too
            loss = loss + (step * 0.01).sum()
        loss.backward()
    grads = [x.grad.copy()] + [p.grad.copy() for p in rnn.parameters()]
    return (final.data.copy(), [s.data.copy() for s in steps],
            loss.item(), grads)


@pytest.mark.equivalence
class TestFusedGraphEquivalence:
    x_data = np.random.default_rng(3).normal(size=(3, 6, 4))

    @pytest.mark.parametrize("cell_type", CELL_TYPES)
    @pytest.mark.parametrize("mask", [None, MASK], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_stacked_rnn(self, cell_type, mask, reverse):
        graph = _stacked_loss_and_grads("graph", cell_type, mask, reverse,
                                        self.x_data)
        fused = _stacked_loss_and_grads("fused", cell_type, mask, reverse,
                                        self.x_data)
        np.testing.assert_array_equal(graph[0], fused[0])  # final: bit-for-bit
        for graph_step, fused_step in zip(graph[1], fused[1]):
            np.testing.assert_array_equal(graph_step, fused_step)
        assert graph[2] == fused[2]  # loss value
        for graph_grad, fused_grad in zip(graph[3], fused[3]):
            np.testing.assert_allclose(graph_grad, fused_grad,
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("cell_type", CELL_TYPES)
    def test_bidirectional(self, cell_type):
        def run(backend):
            birnn = BidirectionalRNN(4, 5, np.random.default_rng(5),
                                     num_layers=2, cell_type=cell_type)
            x = Tensor(self.x_data.copy(), requires_grad=True)
            with use_backend(backend):
                out = birnn(x, mask=MASK)
                (out ** 2).sum().backward()
            return (out.data.copy(),
                    [x.grad.copy()] + [p.grad.copy() for p in birnn.parameters()])

        graph_out, graph_grads = run("graph")
        fused_out, fused_grads = run("fused")
        np.testing.assert_array_equal(graph_out, fused_out)
        for graph_grad, fused_grad in zip(graph_grads, fused_grads):
            np.testing.assert_allclose(graph_grad, fused_grad,
                                       rtol=1e-9, atol=1e-12)


class TestLazyOutputs:
    def test_collect_outputs_false_skips_list(self):
        rnn = StackedRNN(3, 4, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 3)))
        final_lazy, outputs = rnn.run(x, collect_outputs=False)
        assert outputs == []
        final_full, steps = rnn.run(x)
        assert len(steps) == 5
        np.testing.assert_array_equal(final_lazy.data, final_full.data)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forward_matches_run(self, backend):
        rnn = StackedRNN(3, 4, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 3)))
        with use_backend(backend):
            np.testing.assert_array_equal(rnn(x).data, rnn.run(x)[0].data)


def _tsb_setup():
    rng = np.random.default_rng(0)
    config = ModelConfig(char_embed_dim=4, value_units=3, num_layers=2,
                         attr_embed_dim=2, attr_units=2,
                         length_dense_units=3, head_units=4)
    values = rng.integers(1, 10, size=(6, 7))
    lengths = np.array([0, 7, 3, 1, 5, 2])  # row 0: an empty value
    values[np.arange(7) >= lengths[:, None]] = 0  # right padding
    features = {
        "values": values,
        "attributes": rng.integers(0, 3, size=6),
        "length_norm": rng.random((6, 1)),
    }
    labels = rng.integers(0, 2, size=6)
    return config, features, labels


@pytest.mark.parametrize("architecture", [TSBRNN, ETSBRNN])
@pytest.mark.equivalence
class TestModelEquivalence:
    def _build(self, architecture, config):
        if architecture is TSBRNN:
            return TSBRNN(10, config, np.random.default_rng(4))
        return ETSBRNN(10, 4, config, np.random.default_rng(4))

    def test_forward_identical(self, architecture):
        config, features, _ = _tsb_setup()
        model = self._build(architecture, config)
        with use_backend("graph"):
            graph_probs = model(features).data.copy()
        with use_backend("fused"):
            fused_probs = model(features).data.copy()
        np.testing.assert_array_equal(graph_probs, fused_probs)

    def test_training_loss_identical(self, architecture):
        config, features, labels = _tsb_setup()
        model = self._build(architecture, config)
        with use_backend("graph"):
            graph_loss = model.training_loss(features, labels)
            graph_loss.backward()
            graph_grads = {name: p.grad.copy()
                           for name, p in model.named_parameters()}
        model.zero_grad()
        with use_backend("fused"):
            fused_loss = model.training_loss(features, labels)
            fused_loss.backward()
        assert graph_loss.item() == fused_loss.item()
        for name, param in model.named_parameters():
            np.testing.assert_allclose(
                graph_grads[name], param.grad, rtol=1e-9, atol=1e-12,
                err_msg=f"gradient mismatch for {name}")
