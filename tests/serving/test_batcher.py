"""Micro-batcher coalescing, admission control and value preservation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import ModelConfig
from repro.serving import MicroBatcher, Overloaded, ServedModel

from tests.serving.conftest import cells, engine_scores


def queue_then_start(batcher, requests):
    """Enqueue every request before the batcher thread exists.

    Deterministic coalescing: by the time the thread starts, the first
    item's deadline has effectively arrived with the whole queue
    waiting, so everything admissible lands in one batch.
    """
    futures = [batcher.submit(*request) for request in requests]
    batcher.start()
    return [future.result(timeout=10) for future in futures]


class TestCoalescing:
    def test_concurrent_requests_share_one_batch(self, detector, batcher):
        requests = [cells(detector, [value])
                    for value in ("abc", "xy", "1", "qq")]
        results = queue_then_start(batcher, requests)
        assert len({r.batch_id for r in results}) == 1
        assert all(r.batch_items == 4 for r in results)
        assert all(r.batch_rows == 4 for r in results)
        assert batcher.stats.n_batches == 1
        assert batcher.stats.mean_batch_items == 4.0

    def test_coalesced_scores_are_byte_identical_to_solo(self, prepared):
        """A seeded mix of 1-16-cell requests, coalesced into one batch,
        scores byte-identically to each request scored alone.  The
        paper's layer widths matter: BLAS rounds their narrow classifier
        product by a row's position in its 4-row block."""
        from tests.serving.conftest import build_detector, paper_tables

        detector = build_detector(prepared, config=ModelConfig())
        rng = np.random.default_rng(11)
        pool = sorted({value for table in paper_tables()
                       for name in table.column_names
                       for value in table.column(name).values})
        requests = []
        for size in rng.integers(1, 17, size=12):
            values = [pool[i] for i in rng.integers(0, len(pool), size=size)]
            attributes = [prepared.attributes[i] for i in
                          rng.integers(0, len(prepared.attributes), size=size)]
            requests.append((values, attributes))
        batcher = MicroBatcher(ServedModel(detector=detector),
                               max_delay_s=0.002)
        try:
            results = queue_then_start(batcher, requests)
        finally:
            batcher.close()
        assert batcher.stats.n_batches == 1

        # Reference: each request alone through a fresh engine.
        for (values, attributes), result in zip(requests, results):
            solo = engine_scores(detector, values, attributes)
            assert result.probabilities.tobytes() == solo.tobytes()

    def test_coalesce_off_means_one_request_per_batch(self, detector,
                                                      served):
        batcher = MicroBatcher(served, max_batch_rows=1)
        try:
            requests = [cells(detector, [value]) for value in "ab"]
            results = queue_then_start(batcher, requests)
            assert results[0].batch_id != results[1].batch_id
            assert all(r.batch_items == 1 for r in results)
            assert batcher.stats.n_batches == 2
        finally:
            batcher.close()

    def test_size_bound_splits_batches(self, detector, served):
        batcher = MicroBatcher(served, max_batch_rows=3, max_delay_s=0.002)
        try:
            requests = [cells(detector, [value]) for value in "abcde"]
            results = queue_then_start(batcher, requests)
            assert batcher.stats.n_batches == 2
            assert sorted(r.batch_rows for r in results) == [2, 2, 3, 3, 3]
        finally:
            batcher.close()


class TestAdmissionControl:
    def test_full_queue_sheds_load(self, detector, served):
        batcher = MicroBatcher(served, max_queue_rows=2)
        request = cells(detector, ["a", "b"])
        batcher.submit(*request)  # fills the bound
        with pytest.raises(Overloaded):
            batcher.submit(*request)
        assert batcher.stats.n_rejected == 1
        # The queued request still completes once the thread runs.
        batcher.start()
        batcher.close()

    def test_single_oversized_request_is_admitted_when_idle(self, detector,
                                                            served):
        batcher = MicroBatcher(served, max_queue_rows=2)
        try:
            request = cells(detector, list("abcdef"))
            result = queue_then_start(batcher, [request])[0]
            assert result.batch_rows == 6
        finally:
            batcher.close()

    def test_submit_after_close_is_rejected(self, detector, batcher):
        batcher.start()
        batcher.close()
        with pytest.raises(Overloaded):
            batcher.submit(*cells(detector, ["a"]))


class TestValidation:
    def test_failed_forward_fails_every_future(self, detector, served,
                                               batcher, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(served.engine, "predict_proba", broken)
        futures = [batcher.submit(*cells(detector, [value]))
                   for value in "ab"]
        batcher.start()
        for future in futures:
            with pytest.raises(RuntimeError, match="forward failed"):
                future.result(timeout=10)

    def test_unknown_attribute_fails_only_its_request(self, detector,
                                                      batcher):
        """The batch checks every request against the served detector:
        a request naming an attribute it lacks fails alone, and the
        rest of the batch is scored as if it had never been queued."""
        good = cells(detector, ["80,000", "abc"], "Sal")
        bad = (["x", "y"], ["A", "ghost"])
        futures = [batcher.submit(*request) for request in (bad, good)]
        batcher.start()
        with pytest.raises(ConfigurationError,
                           match=r"cells\[1\]: .*'ghost'"):
            futures[0].result(timeout=10)
        result = futures[1].result(timeout=10)
        assert result.probabilities.tobytes() \
            == engine_scores(detector, *good).tobytes()
        assert (result.batch_items, result.batch_rows) == (1, 2)
        assert batcher.stats.n_batches == 1
        assert batcher.stats.n_items == 1

    def test_empty_request_rejected(self, batcher):
        with pytest.raises(ConfigurationError):
            batcher.submit([], [])
        with pytest.raises(ConfigurationError, match="2 values but 1"):
            batcher.submit(["a", "b"], ["A"])

    def test_bounds_validated(self, served):
        with pytest.raises(ConfigurationError):
            MicroBatcher(served, max_batch_rows=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(served, max_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(served, max_queue_rows=0)
