"""Tests for the record sinks and the JSON-lines summarizer."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    read_records,
    render_summary,
    summarize_jsonl,
    summarize_records,
)


class TestMemorySink:
    def test_collects_and_filters_by_type(self):
        sink = MemorySink()
        sink.emit({"type": "epoch", "loss": 0.5})
        sink.emit({"type": "span", "name": "fit"})
        assert len(sink.records) == 2
        assert sink.of_type("epoch") == [{"type": "epoch", "loss": 0.5}]

    def test_emit_copies_the_record(self):
        sink = MemorySink()
        record = {"type": "epoch"}
        sink.emit(record)
        record["mutated"] = True
        assert "mutated" not in sink.records[0]


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out" / "tele.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "epoch", "loss": 0.25})
        sink.emit({"type": "inference", "n_rows": 10})
        sink.close()
        assert sink.n_records == 2
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"type": "epoch", "loss": 0.25},
            {"type": "inference", "n_rows": 10},
        ]

    def test_lazy_open_writes_nothing_without_records(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_numpy_values_serialise(self, tmp_path):
        path = tmp_path / "np.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "x", "i": np.int64(3), "f": np.float64(0.5),
                   "a": np.arange(2)})
        sink.close()
        assert json.loads(path.read_text()) == {"type": "x", "i": 3,
                                                "f": 0.5, "a": [0, 1]}

    def test_flushes_per_line(self, tmp_path):
        path = tmp_path / "live.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "epoch"})
        # Readable before close -- the crash-mid-run guarantee.
        assert json.loads(path.read_text()) == {"type": "epoch"}
        sink.close()

    def test_registry_emit_reaches_file(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        registry = MetricsRegistry()
        sink = JsonlSink(path)
        registry.add_sink(sink)
        registry.emit({"type": "custom", "k": 1})
        sink.close()
        assert read_records(path) == [{"type": "custom", "k": 1}]


class TestSummarize:
    RECORDS = [
        {"type": "span", "name": "train.fit", "wall_s": 1.0, "cpu_s": 0.9},
        {"type": "epoch", "epoch": 0, "loss": 0.9, "wall_s": 0.5},
        {"type": "epoch", "epoch": 1, "loss": 0.4, "wall_s": 0.5},
        {"type": "inference", "n_rows": 100, "n_unique": 40,
         "cache_hits": 10, "cache_misses": 30, "n_evaluated": 30},
        {"type": "inference", "n_rows": 100, "n_unique": 40,
         "cache_hits": 40, "cache_misses": 0, "n_evaluated": 0},
    ]

    def test_aggregates(self):
        summary = summarize_records(self.RECORDS)
        assert summary["n_records"] == 5
        assert summary["record_counts"] == {"span": 1, "epoch": 2,
                                            "inference": 2}
        assert summary["spans"]["train.fit"]["wall_s"] == 1.0
        assert summary["epochs"]["count"] == 2
        assert summary["epochs"]["first_loss"] == 0.9
        assert summary["epochs"]["last_loss"] == 0.4
        assert summary["epochs"]["min_loss"] == 0.4
        inference = summary["inference"]
        assert inference["calls"] == 2
        assert inference["n_rows"] == 200
        assert inference["n_unique"] == 80
        assert inference["unique_ratio"] == pytest.approx(0.4)
        assert inference["hit_rate"] == pytest.approx(50 / 80)

    def test_render_is_stable_text(self):
        text = render_summary(summarize_records(self.RECORDS))
        assert "records: 5" in text
        assert "train.fit" in text
        assert "2 epochs" in text
        assert "30 network forwards" in text

    def test_summarize_jsonl_end_to_end(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in self.RECORDS))
        assert "records: 5" in summarize_jsonl(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no telemetry file"):
            read_records(tmp_path / "absent.jsonl")

    def test_bad_json_points_at_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "epoch"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            read_records(path)

    def test_empty_records(self):
        summary = summarize_records([])
        assert summary["n_records"] == 0
        assert summary["epochs"]["first_loss"] is None
        assert summary["inference"]["unique_ratio"] is None
        assert render_summary(summary).startswith("records: 0")
