"""Edge-case tests for prediction-cache invalidation and accounting.

Covers the corners the main engine/cache suites skirt: a
``load_state_dict`` landing *between* two predictions of one stream, LRU
eviction ordering under capacity pressure (with the eviction counter),
the double version bump of a checkpoint restore, and the telemetry
bookkeeping identity ``hits + misses == lookups``.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.inference import InferenceEngine, PredictionCache
from repro.models import ModelConfig
from repro.models.tsb_rnn import TSBRNN
from repro.nn import BestWeightsCheckpoint
from repro.nn.training import predict_proba

VOCAB = 12
N_ATTRS = 3
MAX_LEN = 10
TINY = ModelConfig(char_embed_dim=6, value_units=5, num_layers=1,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)


def _pool_features(rng, n_unique, n_rows):
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


@pytest.fixture()
def model():
    m = TSBRNN(VOCAB, TINY, np.random.default_rng(1))
    m.eval()
    return m


def _probs(x):
    return np.array([x, 1 - x])


class TestLoadStateDictMidStream:
    def test_reload_between_calls_flushes_and_stays_correct(self, model):
        """A weights reload between two predictions of one serving stream
        must flush the cache exactly once and keep outputs naive-exact."""
        rng = np.random.default_rng(7)
        features, lengths = _pool_features(rng, 5, 20)
        cache = PredictionCache()
        engine = InferenceEngine(model, cache=cache, batch_size=6)

        engine.predict_proba(features, lengths=lengths)          # warm
        warm = engine.predict_proba(features, lengths=lengths)
        assert engine.last_stats.cache_hits == engine.last_stats.n_unique

        model.load_state_dict(model.state_dict())                # mid-stream
        reloaded = engine.predict_proba(features, lengths=lengths)
        assert cache.invalidations == 1
        # Same weights were reloaded, so values match; but nothing may
        # have been served from the (stale-versioned) cache.
        assert engine.last_stats.cache_hits == 0
        assert engine.last_stats.cache_misses == engine.last_stats.n_unique
        np.testing.assert_array_equal(warm, reloaded)
        np.testing.assert_array_equal(
            reloaded, predict_proba(model, features))

    def test_version_survives_across_multiple_reloads(self, model):
        versions = [model.weights_version]
        for _ in range(3):
            model.load_state_dict(model.state_dict())
            versions.append(model.weights_version)
        assert versions == sorted(set(versions))  # strictly increasing


class TestEvictionOrdering:
    def test_lru_evicts_in_recency_order_and_counts(self):
        cache = PredictionCache(capacity=2)
        cache.sync_version(0)
        cache.put(b"a", _probs(0.1))
        cache.put(b"b", _probs(0.2))
        cache.get(b"a")                      # a is now most recent
        cache.put(b"c", _probs(0.3))         # evicts b (the LRU entry)
        assert cache.evictions == 1
        assert cache.get(b"b") is None
        cache.put(b"d", _probs(0.4))         # now a is LRU -> evicted
        assert cache.evictions == 2
        assert cache.get(b"c") is not None
        assert cache.get(b"d") is not None
        assert cache.get(b"a") is None

    def test_resize_shrink_counts_evictions(self):
        cache = PredictionCache(capacity=4)
        cache.sync_version(0)
        for key in (b"a", b"b", b"c", b"d"):
            cache.put(key, _probs(0.5))
        cache.resize(1)
        assert cache.evictions == 3
        assert len(cache) == 1
        assert cache.get(b"d") is not None   # the most recent survived
        assert cache.stats()["evictions"] == 3

    def test_flushes_do_not_count_as_evictions(self):
        cache = PredictionCache(capacity=4)
        cache.sync_version(0)
        cache.put(b"a", _probs(0.5))
        cache.sync_version(1)                # flush, not eviction
        cache.invalidate()
        assert cache.evictions == 0
        assert cache.invalidations == 2

    def test_engine_under_capacity_pressure_stays_exact(self, model):
        """A cache smaller than the unique-cell count thrashes but never
        corrupts results."""
        rng = np.random.default_rng(3)
        features, lengths = _pool_features(rng, 8, 24)
        engine = InferenceEngine(model, cache=PredictionCache(capacity=2),
                                 batch_size=5)
        naive = predict_proba(model, features)
        for _ in range(3):
            got = engine.predict_proba(features, lengths=lengths)
            np.testing.assert_array_equal(naive, got)
        assert engine.cache.evictions > 0


class TestCheckpointRestoreVersioning:
    def test_restore_bumps_version_twice(self, model):
        """``restore`` goes through ``load_state_dict`` (one bump) and
        marks weights updated explicitly (second bump): belt and braces,
        and the cache keys only care that the version moved."""
        checkpoint = BestWeightsCheckpoint()
        checkpoint.on_epoch_end(model, 0, {"loss": 1.0})
        version = model.weights_version
        checkpoint.restore(model)
        assert model.weights_version == version + 2

    def test_restore_invalidates_warm_cache(self, model):
        rng = np.random.default_rng(9)
        features, lengths = _pool_features(rng, 4, 12)
        cache = PredictionCache()
        engine = InferenceEngine(model, cache=cache, batch_size=6)
        checkpoint = BestWeightsCheckpoint()
        checkpoint.on_epoch_end(model, 0, {"loss": 1.0})
        engine.predict_proba(features, lengths=lengths)
        assert len(cache) > 0
        checkpoint.restore(model)
        engine.predict_proba(features, lengths=lengths)
        assert cache.invalidations == 1
        assert engine.last_stats.cache_hits == 0


class TestTelemetryAccounting:
    def test_hits_plus_misses_equals_lookups(self, model):
        rng = np.random.default_rng(5)
        features, lengths = _pool_features(rng, 6, 18)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_telemetry(registry):
            engine = InferenceEngine(model, cache=PredictionCache(),
                                     batch_size=6)
            engine.predict_proba(features, lengths=lengths)   # all misses
            engine.predict_proba(features, lengths=lengths)   # all hits
        counters = registry.snapshot()["counters"]
        assert counters["cache.lookups"] == \
            counters["cache.hits"] + counters["cache.misses"]
        assert counters["cache.lookups"] == 2 * engine.last_stats.n_unique
        # The registry view agrees with the cache's own accounting.
        assert counters["cache.hits"] == engine.cache.hits
        assert counters["cache.misses"] == engine.cache.misses
        # And with the engine's per-call stats, summed across both calls.
        totals = engine.total_stats
        assert counters["cache.hits"] == totals.cache_hits
        assert counters["cache.misses"] == totals.cache_misses

    def test_eviction_counter_matches_cache_attribute(self, model):
        rng = np.random.default_rng(6)
        features, lengths = _pool_features(rng, 8, 16)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_telemetry(registry):
            engine = InferenceEngine(model, cache=PredictionCache(capacity=2),
                                     batch_size=4)
            engine.predict_proba(features, lengths=lengths)
        counters = registry.snapshot()["counters"]
        assert engine.cache.evictions > 0
        assert counters["cache.evictions"] == engine.cache.evictions
