"""Hot swap under concurrent scoring traffic.

The batcher executes each micro-batch under the served model's swap
lock, so a swap can never interleave with a half-executed batch: every
row of a batch is encoded and scored by exactly one served model, whose
version (its swap count) the batch reports.  These tests
hammer that invariant -- worker threads score continuously while the
main thread hot-swaps back and forth between two known weight sets, and
every returned slice must be byte-identical to the single-version
reference for the version it reports.
"""

import threading

import numpy as np

from repro.inference import InferenceEngine
from repro.serving import MicroBatcher, ServedModel

from tests.serving.conftest import build_detector, cells, encode_cells

N_WORKERS = 4
N_REQUESTS = 25
N_SWAPS = 4


class TestConcurrentHotSwap:
    def test_no_batch_ever_mixes_weight_versions(self, prepared):
        values = ["80,000", "98000", "zzz", "8000"]
        detector = build_detector(prepared, seed=0)
        features, lengths = encode_cells(detector, values)
        request = cells(detector, values)

        # Single-version references: version parity identifies the
        # weight set (swap i serves version i with seed 1 when i is odd,
        # seed 0 when even; the served model starts at version 0 =
        # seed 0).
        references = {}
        for parity, seed in ((0, 0), (1, 1)):
            engine = InferenceEngine(build_detector(prepared,
                                                    seed=seed).model)
            references[parity] = engine.predict_proba(features,
                                                      lengths=lengths)

        served = ServedModel(detector=detector)
        batcher = MicroBatcher(served, max_delay_s=0.002).start()
        results = []
        results_lock = threading.Lock()
        errors = []

        def worker():
            try:
                for _ in range(N_REQUESTS):
                    result = batcher.predict(*request)
                    with results_lock:
                        results.append(result)
            except Exception as exc:  # noqa: BLE001 -- surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(N_WORKERS)]
        try:
            for thread in threads:
                thread.start()
            for i in range(1, N_SWAPS + 1):
                outcome = served.swap(detector=build_detector(prepared,
                                                              seed=i % 2))
                assert outcome["version"] == i
            for thread in threads:
                thread.join()
        finally:
            batcher.close()

        assert not errors
        assert len(results) == N_WORKERS * N_REQUESTS
        observed_versions = {r.weights_version for r in results}
        assert observed_versions <= set(range(N_SWAPS + 1))
        # (a) every slice matches the single-version reference for the
        # version it reports -- old and new weights never mixed.
        for result in results:
            np.testing.assert_array_equal(
                result.probabilities,
                references[result.weights_version % 2])
        # (b) requests coalesced into the same batch report the same
        # version: a batch pins exactly one weight set.
        version_of_batch = {}
        for result in results:
            version_of_batch.setdefault(result.batch_id,
                                        result.weights_version)
            assert version_of_batch[result.batch_id] == result.weights_version

    def test_cache_invalidations_bounded_by_swaps(self, prepared):
        detector = build_detector(prepared, seed=0)
        request = cells(detector, ["abc", "xyz"])
        served = ServedModel(detector=detector)
        batcher = MicroBatcher(served, max_delay_s=0.001).start()
        try:
            for i in range(1, N_SWAPS + 1):
                batcher.predict(*request)
                served.swap(detector=build_detector(prepared, seed=i % 2))
            batcher.predict(*request)
        finally:
            batcher.close()
        # One flush per swap, never more: the swap empties the cache,
        # and both weight sets report weights_version 0, so
        # PredictionCache.sync_version never flushes again.
        assert served.cache.stats()["invalidations"] == N_SWAPS
