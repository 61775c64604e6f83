"""Chunk off-by-tail sweep: every batch size from 1 to n, both paths.

With ``n = 7`` rows, sweeping ``batch_size`` over ``1..7`` exercises
every remainder shape a chunked loop can produce -- full chunks, a 1-row
tail (the duplicate-padded BLAS edge), a tail of every other size, and
the single-chunk case -- on both the naive chunked forward and the
dedup-memoized engine.  All of them must return the same bytes.

:class:`TestPaperSizedChunkSweep` repeats the sweep with the paper's
layer widths on a beers table, where BLAS rounds the classifier's
``(m, 32) @ (32, 2)`` product differently for rows outside a full 4-row
block -- the case the engine's row-block padding exists for.
"""

import numpy as np
import pytest

from repro.dataprep import encode_cells, prepare
from repro.datasets import load
from repro.inference import InferenceEngine, PredictionCache
from repro.models import ModelConfig
from repro.models.detector import ARCHITECTURES, build_model
from repro.models.etsb_rnn import ETSBRNN
from repro.nn.training import predict_proba

VOCAB = 12
N_ATTRS = 3
MAX_LEN = 10
N_ROWS = 7
TINY = ModelConfig(char_embed_dim=6, value_units=5, num_layers=1,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)


@pytest.fixture(scope="module")
def model():
    m = ETSBRNN(VOCAB, N_ATTRS + 1, TINY, np.random.default_rng(3))
    m.eval()
    return m


def _distinct_features(rng, n_rows):
    """n distinct cells (no duplicates), ragged lengths."""
    lengths = rng.integers(1, MAX_LEN + 1, size=n_rows)
    values = np.zeros((n_rows, MAX_LEN), dtype=np.int64)
    for i, ell in enumerate(lengths):
        values[i, :ell] = rng.integers(1, VOCAB, size=ell)
    values[:, 0] = np.arange(1, n_rows + 1) % (VOCAB - 1) + 1  # force distinct
    features = {
        "values": values,
        "attributes": rng.integers(1, N_ATTRS + 1, size=n_rows),
        "length_norm": (lengths / MAX_LEN).reshape(-1, 1),
    }
    return features, lengths.astype(np.int64)


@pytest.fixture(scope="module")
def dataset(model):
    rng = np.random.default_rng(17)
    features, lengths = _distinct_features(rng, N_ROWS)
    reference = predict_proba(model, features, batch_size=N_ROWS)
    return features, lengths, reference


class TestChunkSweep:
    @pytest.mark.parametrize("batch_size", range(1, N_ROWS + 1))
    def test_naive_path_any_chunk_size(self, model, dataset, batch_size):
        features, _, reference = dataset
        got = predict_proba(model, features, batch_size=batch_size)
        assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("batch_size", range(1, N_ROWS + 1))
    @pytest.mark.parametrize("with_cache", [False, True],
                             ids=["nocache", "cache"])
    def test_dedup_path_any_chunk_size(self, model, dataset, batch_size,
                                       with_cache):
        features, lengths, reference = dataset
        engine = InferenceEngine(
            model, cache=PredictionCache() if with_cache else None,
            batch_size=batch_size)
        cold = engine.predict_proba(features, lengths=lengths)
        assert cold.tobytes() == reference.tobytes()
        # Tail accounting: every row was evaluated exactly once.
        assert engine.last_stats.n_evaluated == N_ROWS
        if with_cache:
            warm = engine.predict_proba(features, lengths=lengths)
            assert warm.tobytes() == reference.tobytes()
            assert engine.last_stats.cache_hits == N_ROWS
            assert engine.last_stats.n_evaluated == 0

    @pytest.mark.parametrize("batch_size", range(1, N_ROWS + 1))
    def test_dedup_without_lengths_any_chunk_size(self, model, dataset,
                                                  batch_size):
        """No length hints -> no sorted-by-length reordering; the scatter
        must still restore row order for every remainder shape."""
        features, _, reference = dataset
        engine = InferenceEngine(model, cache=None, batch_size=batch_size)
        got = engine.predict_proba(features)
        assert got.tobytes() == reference.tobytes()


@pytest.fixture(scope="module")
def beers():
    pair = load("beers", n_rows=16, seed=0)
    prepared = prepare(pair.dirty, pair.clean)
    return prepared, encode_cells(prepared)


@pytest.mark.equivalence
class TestPaperSizedChunkSweep:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_every_chunk_size_matches_full_chunks(self, beers, architecture):
        """Chunks of M = 1..17 rows score every cell byte-identically to
        M = 256, through the naive forward and the engine."""
        prepared, encoded = beers
        model = build_model(architecture, prepared, ModelConfig(),
                            np.random.default_rng(0))
        model.eval()
        reference = predict_proba(model, encoded.features, batch_size=256)
        for batch_size in range(1, 18):
            naive = predict_proba(model, encoded.features,
                                  batch_size=batch_size)
            engine = InferenceEngine(model, batch_size=batch_size)
            memoized = engine.predict_proba(encoded.features,
                                            lengths=encoded.lengths,
                                            dedup=encoded.dedup)
            assert naive.tobytes() == reference.tobytes(), batch_size
            assert memoized.tobytes() == reference.tobytes(), batch_size
