"""Model registry: registration, in-place vs replace hot swap."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.serialization import save_detector
from repro.serving import ModelRegistry
from repro.serving.registry import DEFAULT_TENANT

from tests.serving.conftest import build_detector, encode_cells


class TestRegistration:
    def test_add_and_get(self, detector):
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        assert registry.get(DEFAULT_TENANT) is entry
        assert DEFAULT_TENANT in registry
        assert registry.tenants() == (DEFAULT_TENANT,)
        assert entry.version == 0
        assert entry.swaps == 0

    def test_duplicate_tenant_rejected(self, detector):
        registry = ModelRegistry()
        registry.add(detector=detector)
        with pytest.raises(ConfigurationError):
            registry.add(detector=detector)

    def test_unknown_tenant_raises_key_error(self):
        with pytest.raises(KeyError):
            ModelRegistry().get("ghost")

    def test_exactly_one_source_required(self, detector):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.add()
        with pytest.raises(ConfigurationError):
            registry.add(detector=detector, path="m.npz")

    def test_unfitted_detector_rejected(self):
        from repro.models import ErrorDetector

        with pytest.raises(ConfigurationError):
            ModelRegistry().add(detector=ErrorDetector())

    def test_add_from_archive(self, detector, tmp_path):
        path = tmp_path / "m.npz"
        save_detector(detector, path)
        registry = ModelRegistry()
        entry = registry.add(path=path)
        assert entry.source == str(path)
        # load_detector restores via load_state_dict, which bumps
        # the fresh model's version 0 -> 1.
        assert entry.version == 1


class TestHotSwap:
    def test_in_place_swap_bumps_version_and_keeps_engine(self, prepared,
                                                          detector):
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        engine_before = entry.engine
        outcome = registry.publish(
            DEFAULT_TENANT, detector=build_detector(prepared, seed=1))
        assert outcome["mode"] == "in-place"
        assert outcome["version"] == 1
        assert outcome["swaps"] == 1
        assert entry.engine is engine_before
        assert entry.version == 1

    def test_in_place_swap_changes_scores(self, prepared, detector):
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        features, lengths = encode_cells(detector, ["80,000", "98000"])
        before = entry.engine.predict_proba(features, lengths=lengths)
        registry.publish(DEFAULT_TENANT,
                         detector=build_detector(prepared, seed=1))
        after = entry.engine.predict_proba(features, lengths=lengths)
        assert not np.array_equal(before, after)
        # Swapping the original weights back restores them exactly.
        registry.publish(DEFAULT_TENANT,
                         detector=build_detector(prepared, seed=0))
        restored = entry.engine.predict_proba(features, lengths=lengths)
        np.testing.assert_array_equal(before, restored)

    def test_replace_swap_on_architecture_change(self, prepared, detector):
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        engine_before = entry.engine
        cache_before = entry.cache
        outcome = registry.publish(
            DEFAULT_TENANT,
            detector=build_detector(prepared, architecture="tsb"))
        assert outcome["mode"] == "replace"
        assert entry.engine is not engine_before
        # The tenant's prediction cache survives the replacement.
        assert entry.cache is cache_before
        assert entry.engine.cache is cache_before

    def test_replace_swap_version_strictly_increases(self, prepared, detector,
                                                     tmp_path):
        # Every archive-loaded model sits at weights_version 1, so
        # swapping architecturally different archives back and forth
        # must still move the served version forward each time.
        path_a = tmp_path / "a.npz"
        path_b = tmp_path / "b.npz"
        save_detector(detector, path_a)
        save_detector(build_detector(prepared, architecture="tsb"), path_b)
        registry = ModelRegistry()
        entry = registry.add(path=path_a)
        seen = [entry.version]
        for path in (path_b, path_a, path_b):
            outcome = registry.publish(DEFAULT_TENANT, path=path)
            assert outcome["mode"] == "replace"
            assert entry.version > seen[-1]
            seen.append(entry.version)

    def test_replace_swap_never_serves_stale_cache(self, prepared, detector,
                                                   tmp_path):
        # Archives A and B encode identically (same dictionaries) but
        # differ architecturally; after the swap a warm cache entry
        # computed under A must not be returned as B's output.
        path_b = tmp_path / "b.npz"
        save_detector(build_detector(prepared, architecture="tsb"), path_b)
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        features, lengths = encode_cells(detector, ["80,000", "abc"])
        before = entry.engine.predict_proba(features, lengths=lengths)
        assert entry.cache.stats()["size"] > 0
        outcome = registry.publish(DEFAULT_TENANT, path=path_b)
        assert outcome["mode"] == "replace"
        after = entry.engine.predict_proba(features, lengths=lengths)
        assert not np.array_equal(before, after)

    def test_concurrent_publishes_never_corrupt(self, prepared, detector):
        # Two publishers race in-place and replace swaps on one tenant;
        # the in-place decision is taken under the swap lock, so no
        # publish may fail or leave a half-overwritten model: the final
        # weights must match one candidate exactly.
        import threading

        from repro.inference import InferenceEngine

        candidates = [(arch, seed) for arch in ("etsb", "tsb")
                      for seed in (1, 2, 3)]
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        errors = []

        def publisher(arch):
            try:
                for seed in (1, 2, 3):
                    registry.publish(DEFAULT_TENANT,
                                     detector=build_detector(
                                         prepared, architecture=arch,
                                         seed=seed))
            except Exception as exc:  # noqa: BLE001 -- surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=publisher, args=(arch,))
                   for arch in ("etsb", "tsb")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        features, lengths = encode_cells(detector, ["80,000", "abc"])
        served = entry.engine.predict_proba(features, lengths=lengths)
        references = []
        for arch, seed in candidates:
            engine = InferenceEngine(
                build_detector(prepared, architecture=arch,
                               seed=seed).model)
            references.append(engine.predict_proba(features,
                                                   lengths=lengths))
        assert any(np.array_equal(served, reference)
                   for reference in references)

    def test_publish_to_create(self, detector):
        registry = ModelRegistry()
        outcome = registry.publish("fresh", detector=detector)
        assert outcome["mode"] == "created"
        assert "fresh" in registry

    def test_publish_from_archive_updates_source(self, prepared, detector,
                                                 tmp_path):
        path = tmp_path / "v2.npz"
        save_detector(build_detector(prepared, seed=2), path)
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        outcome = registry.publish(DEFAULT_TENANT, path=path)
        assert outcome["mode"] == "in-place"
        assert entry.source == str(path)

    def test_swap_flushes_cache_exactly_once(self, prepared, detector):
        registry = ModelRegistry()
        entry = registry.add(detector=detector)
        features, lengths = encode_cells(detector, ["abc", "xyz"])
        for n_swaps in range(1, 4):
            entry.engine.predict_proba(features, lengths=lengths)
            entry.engine.predict_proba(features, lengths=lengths)
            before = entry.cache.stats()
            assert before["size"] > 0
            registry.publish(DEFAULT_TENANT,
                             detector=build_detector(prepared,
                                                     seed=n_swaps))
            # The flush lands on the next lookup (sync_version) --
            # exactly one invalidation per version bump, however
            # many predictions follow.
            entry.engine.predict_proba(features, lengths=lengths)
            entry.engine.predict_proba(features, lengths=lengths)
            after = entry.cache.stats()
            assert (after["invalidations"]
                    == before["invalidations"] + 1)

    def test_stats_shape(self, detector):
        registry = ModelRegistry()
        registry.add(detector=detector)
        stats = registry.stats()
        assert set(stats) == {DEFAULT_TENANT}
        entry = stats[DEFAULT_TENANT]
        assert {"version", "swaps", "source", "cache",
                "inference"} <= set(entry)
