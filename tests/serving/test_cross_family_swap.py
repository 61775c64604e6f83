"""Hot-swapping across detector families (ETSB -> attention).

The swap is family-agnostic: swapping in an architecturally different
model must rebuild the engine, bump the served version strictly, flush
the shared prediction cache exactly once, and never let a micro-batch
mix weight versions.  The engine-level
fingerprint keying is what makes the *shared* cache safe: two families
scoring identical feature rows under the same weights version must never
read each other's probabilities.
"""

import threading

import numpy as np

from repro.inference import InferenceEngine, PredictionCache, model_fingerprint
from repro.serving import MicroBatcher, ServedModel

from tests.serving.conftest import build_detector, cells, encode_cells


class TestCrossFamilySwap:
    def test_publish_attn_over_etsb_replaces_and_flushes_once(self, prepared):
        etsb = build_detector(prepared, architecture="etsb", seed=0)
        attn = build_detector(prepared, architecture="attn", seed=1)
        values = ["80,000", "98000", "zzz", "8000"]
        features, lengths = encode_cells(etsb, values)

        reference_engine = InferenceEngine(attn.model)
        reference = reference_engine.predict_proba(features,
                                                   lengths=lengths)

        served = ServedModel(detector=etsb)
        engine_before = served.engine
        before = served.engine.predict_proba(features, lengths=lengths)
        assert len(served.cache) > 0
        flushes_before = served.cache.stats()["invalidations"]
        old_version = served.version

        outcome = served.swap(detector=attn)
        assert outcome["version"] > old_version
        assert served.engine is not engine_before

        after = served.engine.predict_proba(features, lengths=lengths)
        np.testing.assert_array_equal(after, reference)
        assert not np.array_equal(after, before)
        assert (served.cache.stats()["invalidations"]
                == flushes_before + 1)

        # A second scoring pass reuses the flushed cache: no
        # further invalidations, warm hits instead.
        served.engine.predict_proba(features, lengths=lengths)
        assert (served.cache.stats()["invalidations"]
                == flushes_before + 1)

    def test_no_batch_mixes_versions_across_families(self, prepared):
        etsb = build_detector(prepared, architecture="etsb", seed=0)
        attn = build_detector(prepared, architecture="attn", seed=1)
        values = ["80,000", "98000", "zzz", "8000"]
        features, lengths = encode_cells(etsb, values)
        request = cells(etsb, values)

        references = {}
        for name, detector in (("etsb", etsb), ("attn", attn)):
            engine = InferenceEngine(detector.model)
            references[name] = engine.predict_proba(features,
                                                    lengths=lengths)

        served = ServedModel(detector=etsb)
        version_of = {served.version: "etsb"}
        batcher = MicroBatcher(served, max_delay_s=0.002).start()
        results = []
        results_lock = threading.Lock()
        errors = []

        def worker():
            try:
                for _ in range(20):
                    result = batcher.predict(*request)
                    with results_lock:
                        results.append(result)
            except Exception as exc:  # noqa: BLE001 -- surfaced below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            outcome = served.swap(detector=attn)
            version_of[outcome["version"]] = "attn"
            for thread in threads:
                thread.join()
        finally:
            batcher.close()

        assert not errors
        assert len(results) == 80
        for result in results:
            family = version_of[result.weights_version]
            np.testing.assert_array_equal(result.probabilities,
                                          references[family])


class TestSharedCacheFingerprintSegregation:
    def test_two_families_sharing_one_cache_never_collide(self, prepared):
        """Identical rows + identical version, different model family."""
        etsb = build_detector(prepared, architecture="etsb", seed=0)
        attn = build_detector(prepared, architecture="attn", seed=1)
        values = ["80,000", "98000", "zzz", "8000"]
        features, lengths = encode_cells(etsb, values)

        assert (model_fingerprint(etsb.model)
                != model_fingerprint(attn.model))
        assert etsb.model.weights_version == attn.model.weights_version

        bare = InferenceEngine(attn.model)
        reference = bare.predict_proba(features, lengths=lengths)

        cache = PredictionCache(capacity=4096)
        first = InferenceEngine(etsb.model, cache=cache)
        second = InferenceEngine(attn.model, cache=cache)
        etsb_probs = first.predict_proba(features, lengths=lengths)
        attn_probs = second.predict_proba(features, lengths=lengths)
        np.testing.assert_array_equal(attn_probs, reference)
        assert not np.array_equal(attn_probs, etsb_probs)
