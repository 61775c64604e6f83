"""The served model: loading and hot swap."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import ErrorDetector
from repro.models.serialization import save_detector
from repro.serving import ServedModel

from tests.serving.conftest import build_detector, encode_cells


class TestRegistration:
    def test_add_and_get(self, detector):
        served = ServedModel(detector=detector)
        assert served.detector is detector
        assert served.engine.model is detector.model
        assert served.engine.cache is served.cache
        assert served.version == 0
        assert served.swaps == 0
        assert served.source is None

    def test_exactly_one_source_required(self, detector):
        with pytest.raises(ConfigurationError):
            ServedModel()
        with pytest.raises(ConfigurationError):
            ServedModel(detector=detector, path="m.npz")
        with pytest.raises(ConfigurationError):
            ServedModel(detector=detector).swap()

    def test_unfitted_detector_rejected(self, detector):
        with pytest.raises(ConfigurationError):
            ServedModel(detector=ErrorDetector())
        served = ServedModel(detector=detector)
        with pytest.raises(ConfigurationError):
            served.swap(detector=ErrorDetector())
        assert served.detector is detector
        assert served.swaps == 0

    def test_add_from_archive(self, detector, tmp_path):
        path = tmp_path / "m.npz"
        save_detector(detector, path)
        served = ServedModel(path=path)
        assert served.source == str(path)
        # The served version counts swaps, whatever weights_version the
        # archive loads at (load_state_dict bumps a fresh model to 1).
        assert served.detector.model.weights_version == 1
        assert served.version == 0


class TestHotSwap:
    def test_swap_changes_scores(self, prepared, detector):
        served = ServedModel(detector=detector)
        features, lengths = encode_cells(detector, ["80,000", "98000"])
        before = served.engine.predict_proba(features, lengths=lengths)
        outcome = served.swap(detector=build_detector(prepared, seed=1))
        assert outcome == {"version": 1, "swaps": 1}
        after = served.engine.predict_proba(features, lengths=lengths)
        assert not np.array_equal(before, after)
        # Swapping the original weights back restores them exactly.
        served.swap(detector=build_detector(prepared, seed=0))
        restored = served.engine.predict_proba(features, lengths=lengths)
        np.testing.assert_array_equal(before, restored)

    def test_replace_swap_on_architecture_change(self, prepared, detector):
        served = ServedModel(detector=detector)
        engine_before = served.engine
        cache_before = served.cache
        incoming = build_detector(prepared, architecture="tsb")
        outcome = served.swap(detector=incoming)
        assert outcome == {"version": 1, "swaps": 1}
        assert served.detector is incoming
        assert served.engine is not engine_before
        assert served.engine.model is incoming.model
        # The prediction cache survives the replacement.
        assert served.cache is cache_before
        assert served.engine.cache is cache_before

    def test_replace_swap_version_strictly_increases(self, prepared, detector,
                                                     tmp_path):
        # Every archive-loaded model sits at weights_version 1, yet
        # swapping archives back and forth moves the served version
        # forward each time.
        path_a = tmp_path / "a.npz"
        path_b = tmp_path / "b.npz"
        save_detector(detector, path_a)
        save_detector(build_detector(prepared, architecture="tsb"), path_b)
        served = ServedModel(path=path_a)
        seen = [served.version]
        for path in (path_b, path_a, path_a, path_b):
            outcome = served.swap(path=path)
            assert outcome["version"] == served.version > seen[-1]
            seen.append(served.version)

    def test_replace_swap_never_serves_stale_cache(self, prepared, detector,
                                                   tmp_path):
        # Archives A and B encode identically (same dictionaries) but
        # differ architecturally; after the swap a warm cache entry
        # computed under A must not be returned as B's output.
        path_b = tmp_path / "b.npz"
        save_detector(build_detector(prepared, architecture="tsb"), path_b)
        served = ServedModel(detector=detector)
        features, lengths = encode_cells(detector, ["80,000", "abc"])
        before = served.engine.predict_proba(features, lengths=lengths)
        assert served.cache.stats()["size"] > 0
        served.swap(path=path_b)
        after = served.engine.predict_proba(features, lengths=lengths)
        assert not np.array_equal(before, after)

    def test_concurrent_publishes_never_corrupt(self, prepared, detector):
        # Two threads race swaps of two architectures; no swap may fail,
        # be lost or leave a half-swapped model: the served engine must
        # score exactly like one candidate, and every swap counts.
        import threading

        from repro.inference import InferenceEngine

        candidates = [(arch, seed) for arch in ("etsb", "tsb")
                      for seed in (1, 2, 3)]
        served = ServedModel(detector=detector)
        errors = []

        def swapper(arch):
            try:
                for seed in (1, 2, 3):
                    served.swap(detector=build_detector(
                        prepared, architecture=arch, seed=seed))
            except Exception as exc:  # noqa: BLE001 -- surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=swapper, args=(arch,))
                   for arch in ("etsb", "tsb")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        assert served.swaps == len(candidates)
        assert served.version == len(candidates)
        assert served.engine.model is served.detector.model
        features, lengths = encode_cells(detector, ["80,000", "abc"])
        served_scores = served.engine.predict_proba(features, lengths=lengths)
        references = []
        for arch, seed in candidates:
            engine = InferenceEngine(
                build_detector(prepared, architecture=arch,
                               seed=seed).model)
            references.append(engine.predict_proba(features,
                                                   lengths=lengths))
        assert any(np.array_equal(served_scores, reference)
                   for reference in references)

    def test_publish_from_archive_updates_source(self, prepared, detector,
                                                 tmp_path):
        path = tmp_path / "v2.npz"
        save_detector(build_detector(prepared, seed=2), path)
        served = ServedModel(detector=detector)
        outcome = served.swap(path=path)
        assert outcome == {"version": 1, "swaps": 1}
        assert served.source == str(path)

    def test_swap_flushes_cache_exactly_once(self, prepared, detector):
        served = ServedModel(detector=detector)
        features, lengths = encode_cells(detector, ["abc", "xyz"])
        for n_swaps in range(1, 4):
            served.engine.predict_proba(features, lengths=lengths)
            served.engine.predict_proba(features, lengths=lengths)
            before = served.cache.stats()
            assert before["size"] > 0
            served.swap(detector=build_detector(prepared, seed=n_swaps))
            # The flush lands on the next lookup (sync_version) --
            # exactly one invalidation per swap, however many
            # predictions follow.
            served.engine.predict_proba(features, lengths=lengths)
            served.engine.predict_proba(features, lengths=lengths)
            after = served.cache.stats()
            assert (after["invalidations"]
                    == before["invalidations"] + 1)

    def test_swap_empties_the_cache_and_leaves_the_model_alone(
            self, prepared, detector):
        # The incoming model keeps its own weights_version; the kept
        # cache is emptied instead, so no entry of the outgoing model
        # can answer for the incoming one at an equal version.
        served = ServedModel(detector=detector)
        features, lengths = encode_cells(detector, ["abc", "xyz"])
        served.engine.predict_proba(features, lengths=lengths)
        assert len(served.cache) > 0
        incoming = build_detector(prepared, seed=1)
        assert incoming.model.weights_version == detector.model.weights_version
        served.swap(detector=incoming)
        assert len(served.cache) == 0
        assert incoming.model.weights_version == 0
        assert served.version == 1

    def test_stats_shape(self, detector):
        stats = ServedModel(detector=detector).stats()
        assert set(stats) == {"version", "swaps", "source", "cache",
                              "inference"}
