"""Tests for padding-aware execution: effective-width trimming.

The contract under test (see :mod:`repro.nn.kernels` and
:func:`repro.nn.training.predict_proba`): trimming a batch's padded tail
only removes steps that are padding for *every* row, so forward values
are bit-for-bit identical to the full-padding path on both backends, and
sorted-by-length chunked inference returns exactly the plain result.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import ModelConfig
from repro.models.tsb_rnn import TSBRNN
from repro.nn import use_backend
from repro.nn.training import predict_proba

TINY = ModelConfig(char_embed_dim=5, value_units=6, num_layers=2,
                   head_units=7)

VOCAB = 12


def skewed_dataset(n=48, max_length=40, seed=0):
    """Padded index sequences with heavily skewed true lengths.

    Most values are short (as in the benchmark datasets' name/city/state
    columns), a few are near the dataset-wide maximum -- the regime where
    full padding wastes the most work.
    """
    rng = np.random.default_rng(seed)
    short = rng.integers(2, 8, size=int(n * 0.8))
    long = rng.integers(max_length - 6, max_length + 1, size=n - short.shape[0])
    lengths = np.concatenate([short, long])
    rng.shuffle(lengths)
    values = np.zeros((n, max_length), dtype=np.int64)
    for i, ell in enumerate(lengths):
        values[i, :ell] = rng.integers(1, VOCAB, size=ell)
    return {"values": values}, lengths.astype(np.int64)


class TestTrimmedForward:
    @pytest.mark.parametrize("backend", ["fused", "graph"])
    def test_forward_bit_for_bit(self, backend):
        """A trimmed batch yields byte-identical probabilities."""
        features, lengths = skewed_dataset()
        model = TSBRNN(VOCAB, TINY, np.random.default_rng(11))
        model.eval()
        short = np.flatnonzero(lengths < 10)
        width = int(lengths[short].max())
        full = {"values": features["values"][short]}
        trimmed = {"values": features["values"][short][:, :width]}
        with use_backend(backend):
            a = model(full).numpy()
            b = model(trimmed).numpy()
        np.testing.assert_array_equal(a, b)


class TestPredictProbaLengths:
    def test_sorted_chunking_matches_plain(self):
        features, lengths = skewed_dataset()
        model = TSBRNN(VOCAB, TINY, np.random.default_rng(2))
        model.eval()
        plain = predict_proba(model, features, batch_size=7)
        sorted_ = predict_proba(model, features, batch_size=7,
                                lengths=lengths)
        np.testing.assert_array_equal(plain, sorted_)

    def test_lengths_mismatch_rejected(self):
        features, _ = skewed_dataset(n=6)
        model = TSBRNN(VOCAB, TINY, np.random.default_rng(2))
        with pytest.raises(ConfigurationError):
            predict_proba(model, features, lengths=np.arange(4))
