"""Acceptance tests: telemetry wired through the real hot paths.

Trains a tiny detector with a JSON-lines sink attached and asserts the
emitted records against the ground truth the library reports through its
return values (:class:`DetectionResult`, :class:`InferenceStats`) -- the
telemetry stream must agree with the numbers the code computes anyway.
"""

import json

import pytest

from repro import telemetry
from repro.datasets import load
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.telemetry import JsonlSink, MemorySink, MetricsRegistry

TINY = ModelConfig(char_embed_dim=6, value_units=5, num_layers=1,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)
EPOCHS = 2


def _tiny_detector(seed: int = 0) -> ErrorDetector:
    return ErrorDetector(n_label_tuples=6, model_config=TINY,
                         training_config=TrainingConfig(epochs=EPOCHS),
                         seed=seed)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One instrumented train+evaluate cycle: (result, records, snapshot)."""
    path = tmp_path_factory.mktemp("tele") / "run.jsonl"
    registry = MetricsRegistry()
    sink = JsonlSink(path)
    registry.add_sink(sink)
    pair = load("hospital", n_rows=40, seed=4)
    with telemetry.use_telemetry(registry):
        detector = _tiny_detector()
        detector.fit(pair)
        result = detector.evaluate()
    sink.close()
    records = [json.loads(line)
               for line in path.read_text().strip().splitlines()]
    return result, records, registry.snapshot()


def _of_type(records, record_type):
    return [r for r in records if r.get("type") == record_type]


class TestTrainingRecords:
    def test_one_epoch_record_per_epoch(self, traced_run):
        _, records, snapshot = traced_run
        epochs = _of_type(records, "epoch")
        assert len(epochs) == EPOCHS
        assert [r["epoch"] for r in epochs] == list(range(EPOCHS))
        assert snapshot["counters"]["train.epochs"] == EPOCHS

    def test_epoch_records_carry_plausible_training_signal(self, traced_run):
        _, records, _ = traced_run
        for record in _of_type(records, "epoch"):
            assert record["loss"] > 0.0
            assert record["grad_norm"] is None or record["grad_norm"] >= 0.0
            assert record["n_batches"] >= 1
            assert 0.0 < record["batch_fill"] <= 1.0
            assert record["wall_s"] > 0.0
            assert 0.0 <= record["backward_s"] <= record["wall_s"]

    def test_loss_gauge_matches_last_epoch_record(self, traced_run):
        _, records, snapshot = traced_run
        last = _of_type(records, "epoch")[-1]
        assert snapshot["gauges"]["train.loss"] == pytest.approx(last["loss"])

    def test_fit_span_encloses_the_epochs(self, traced_run):
        _, records, snapshot = traced_run
        [fit_span] = [r for r in _of_type(records, "span")
                      if r["name"] == "train.fit"]
        assert fit_span["epochs"] == EPOCHS
        epoch_wall = sum(r["wall_s"] for r in _of_type(records, "epoch"))
        assert fit_span["wall_s"] >= epoch_wall
        assert snapshot["timers"]["span.train.fit"]["count"] == 1

    def test_kernel_timers_recorded(self, traced_run):
        _, _, snapshot = traced_run
        timers = snapshot["timers"]
        assert timers["kernel.RNNLevelFunction.forward"]["count"] > 0
        assert timers["kernel.RNNLevelFunction.backward"]["count"] > 0
        assert timers["kernel.DenseSoftmaxBCEFunction.forward"]["count"] > 0


class TestInferenceRecords:
    def test_inference_record_matches_inference_stats(self, traced_run):
        result, records, _ = traced_run
        stats = result.inference
        assert stats is not None
        last = _of_type(records, "inference")[-1]
        assert last == {"type": "inference", **stats.as_dict()}

    def test_counters_match_inference_stats(self, traced_run):
        result, _, snapshot = traced_run
        counters = snapshot["counters"]
        stats = result.inference
        # The evaluation pass is the only prediction in this session.
        assert counters["inference.calls"] == 1
        assert counters["inference.rows"] == stats.n_rows
        assert counters["inference.unique"] == stats.n_unique
        assert counters["inference.cache_hits"] == stats.cache_hits
        assert counters["inference.cache_misses"] == stats.cache_misses
        assert counters["inference.evaluated"] == stats.n_evaluated

    def test_cache_lookup_counters_balance(self, traced_run):
        _, _, snapshot = traced_run
        counters = snapshot["counters"]
        assert counters["cache.lookups"] == \
            counters.get("cache.hits", 0) + counters["cache.misses"]

    def test_forward_latency_histogram_covers_every_chunk(self, traced_run):
        result, _, snapshot = traced_run
        hist = snapshot["histograms"]["inference.forward_seconds"]
        # One observation per representative chunk; batch_size 256 >= the
        # tiny test split, so exactly one chunk was evaluated.
        assert hist["count"] == 1
        assert sum(hist["counts"]) == hist["count"]
        assert hist["min"] > 0.0

    def test_evaluation_record_matches_detection_result(self, traced_run):
        result, records, _ = traced_run
        [record] = _of_type(records, "evaluation")
        assert record["n_cells"] == result.predictions.shape[0]
        assert record["precision"] == pytest.approx(
            round(result.report.precision, 4))
        assert record["recall"] == pytest.approx(
            round(result.report.recall, 4))
        assert record["f1"] == pytest.approx(round(result.report.f1, 4))
        assert record["inference"] == result.inference.as_dict()


class TestDisabledByDefault:
    def test_no_records_and_no_metrics_without_the_flag(self):
        registry = MetricsRegistry()
        sink = MemorySink()
        registry.add_sink(sink)
        telemetry.set_enabled(False)
        try:
            with telemetry.use_registry(registry):
                pair = load("hospital", n_rows=30, seed=4)
                detector = _tiny_detector()
                detector.fit(pair)
                detector.evaluate()
        finally:
            telemetry.reset_enabled()
        assert sink.records == []
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}, "timers": {}}
