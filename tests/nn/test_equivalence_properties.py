"""Hypothesis properties for the repo's two big equivalence contracts.

1. Backend equivalence: the fused whole-level kernels and the per-step
   graph backend compute the same function -- bit-for-bit forwards,
   numerically identical backwards -- over random shapes, masks, cell
   types and directions.
2. Inference equivalence: the dedup-memoized prediction path returns the
   same bytes as the naive chunked forward over random duplicate
   structures, including the single-row chunks where duplicate-padding
   papers over BLAS's 1-row kernel switch.

Both properties are tier-1 (``pytest -m equivalence`` selects them plus
the parametrized equivalence suites).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.inference import InferenceEngine, PredictionCache
from repro.models import ModelConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.nn import StackedRNN, use_backend
from repro.nn.layers.rnn import CELL_TYPES
from repro.nn.training import predict_proba

pytestmark = pytest.mark.equivalence

VOCAB = 12
N_ATTRS = 3
MAX_LEN = 10
TINY = ModelConfig(char_embed_dim=6, value_units=5, num_layers=1,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)


@pytest.fixture(scope="module")
def model():
    m = ETSBRNN(VOCAB, N_ATTRS + 1, TINY, np.random.default_rng(3))
    m.eval()
    return m


def _random_mask(rng, batch, steps):
    """A ragged-length mask: every row live for a random prefix."""
    lengths = rng.integers(1, steps + 1, size=batch)
    return np.arange(steps)[None, :] < lengths[:, None]


def _run_backend(backend, cell_type, reverse, x_data, mask, seed):
    rnn = StackedRNN(x_data.shape[2], 5, np.random.default_rng(seed),
                     num_layers=2, reverse=reverse, cell_type=cell_type)
    x = Tensor(x_data.copy(), requires_grad=True)
    with use_backend(backend):
        final, _ = rnn.run(x, mask=mask)
        (final ** 2).sum().backward()
    return (final.data.copy(),
            [x.grad.copy()] + [p.grad.copy() for p in rnn.parameters()])


class TestFusedGraphProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           batch=st.integers(1, 5),
           steps=st.integers(1, 7),
           features=st.integers(1, 4),
           cell_index=st.integers(0, len(CELL_TYPES) - 1),
           reverse=st.booleans(),
           masked=st.booleans())
    def test_forward_and_backward_agree(self, seed, batch, steps, features,
                                        cell_index, reverse, masked):
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=(batch, steps, features))
        mask = _random_mask(rng, batch, steps) if masked else None
        cell_type = CELL_TYPES[cell_index]
        fused_out, fused_grads = _run_backend("fused", cell_type, reverse,
                                              x_data, mask, seed)
        graph_out, graph_grads = _run_backend("graph", cell_type, reverse,
                                              x_data, mask, seed)
        np.testing.assert_array_equal(fused_out, graph_out)
        assert len(fused_grads) == len(graph_grads)
        for fused_grad, graph_grad in zip(fused_grads, graph_grads):
            np.testing.assert_allclose(fused_grad, graph_grad,
                                       rtol=1e-9, atol=1e-12)


def _pool_features(rng, n_unique, n_rows):
    """Rows drawn from a pool of ``n_unique`` distinct cells."""
    pool_lengths = rng.integers(1, MAX_LEN + 1, size=n_unique)
    pool_values = np.zeros((n_unique, MAX_LEN), dtype=np.int64)
    for i, ell in enumerate(pool_lengths):
        pool_values[i, :ell] = rng.integers(1, VOCAB, size=ell)
    pool_attrs = rng.integers(1, N_ATTRS + 1, size=n_unique)
    picks = rng.integers(0, n_unique, size=n_rows)
    features = {
        "values": pool_values[picks],
        "attributes": pool_attrs[picks],
        "length_norm": (pool_lengths[picks] / MAX_LEN).reshape(-1, 1),
    }
    return features, pool_lengths[picks].astype(np.int64)


class TestDedupNaiveProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           n_unique=st.integers(1, 8),
           n_rows=st.integers(1, 30),
           batch_size=st.integers(1, 9),
           use_lengths=st.booleans(),
           use_cache=st.booleans())
    def test_dedup_matches_naive_bytes(self, model, seed, n_unique, n_rows,
                                       batch_size, use_lengths, use_cache):
        rng = np.random.default_rng(seed)
        features, lengths = _pool_features(rng, n_unique, n_rows)
        naive = predict_proba(model, features, batch_size=batch_size)
        engine = InferenceEngine(
            model, cache=PredictionCache() if use_cache else None,
            batch_size=batch_size)
        dedup = engine.predict_proba(
            features, lengths=lengths if use_lengths else None)
        assert naive.tobytes() == dedup.tobytes()
        assert engine.last_stats.n_rows == n_rows
        assert engine.last_stats.n_unique <= min(n_unique, n_rows)

    def test_single_row_duplicate_padding_edge(self, model):
        """batch_size=1 forces every chunk through the duplicate-padded
        1-row path on both the naive and the dedup engine."""
        rng = np.random.default_rng(11)
        features, lengths = _pool_features(rng, 4, 9)
        naive_wide = predict_proba(model, features, batch_size=64)
        naive_single = predict_proba(model, features, batch_size=1)
        engine = InferenceEngine(model, cache=PredictionCache(),
                                 batch_size=1)
        dedup_single = engine.predict_proba(features, lengths=lengths)
        assert naive_wide.tobytes() == naive_single.tobytes()
        assert naive_wide.tobytes() == dedup_single.tobytes()
