"""Tests for the metric primitives and the process-wide registry."""

import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    merge_snapshots,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("n")
        assert c.snapshot() == 0
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            Counter("n").inc(-1)


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("loss")
        g.set(0.7)
        g.set(0.5)
        assert g.snapshot() == 0.5


class TestHistogram:
    def test_bucket_placement_is_inclusive_upper_edge(self):
        h = Histogram("lat", edges=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 99.0):
            h.observe(value)
        # <=1.0 -> bucket 0, <=2.0 -> bucket 1, above -> overflow.
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 99.0
        assert h.mean == pytest.approx((0.5 + 1.0 + 1.5 + 2.0 + 99.0) / 5)

    def test_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", edges=())
        with pytest.raises(ConfigurationError):
            Histogram("h", edges=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", edges=(1.0, 1.0))


class TestTimer:
    def test_observe_and_context_manager(self):
        t = Timer("t")
        t.observe(0.25)
        with t.time():
            pass
        assert t.count == 2
        assert t.total >= 0.25
        assert t.mean == pytest.approx(t.total / 2)


class TestRegistry:
    def test_create_or_get_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.timer("b") is reg.timer("b")

    def test_name_is_unique_across_kinds(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="already used"):
            reg.gauge("x")
        with pytest.raises(ConfigurationError, match="already used"):
            reg.histogram("x")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        reg.timer("t").observe(2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        assert snap["timers"]["t"]["total"] == 2.0

    def test_reset_drops_metrics_but_keeps_sinks(self):
        reg = MetricsRegistry()
        sink = telemetry.MemorySink()
        reg.add_sink(sink)
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot()["counters"] == {}
        assert reg.sinks == (sink,)


class TestMerge:
    def _populated(self, counter, gauge, lat):
        reg = MetricsRegistry()
        reg.counter("c").inc(counter)
        reg.gauge("g").set(gauge)
        reg.histogram("h", edges=(1.0, 2.0)).observe(lat)
        reg.timer("t").observe(lat)
        return reg.snapshot()

    def test_counters_histograms_timers_add_gauges_overwrite(self):
        merged = merge_snapshots([
            self._populated(2, 0.9, 0.5),
            self._populated(3, 0.4, 1.5),
        ])
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"] == 0.4
        assert merged["histograms"]["h"]["counts"] == [1, 1, 0]
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["min"] == 0.5
        assert merged["histograms"]["h"]["max"] == 1.5
        assert merged["timers"]["t"]["count"] == 2
        assert merged["timers"]["t"]["total"] == pytest.approx(2.0)

    def test_merge_is_schedule_independent(self):
        parts = [self._populated(i, 0.1 * i, 0.3 * i) for i in range(1, 4)]
        forward = merge_snapshots(parts)
        # Gauges are last-write-wins, so only compare the additive kinds.
        backward = merge_snapshots(list(reversed(parts)))
        assert forward["counters"] == backward["counters"]
        assert forward["histograms"]["h"]["counts"] == \
            backward["histograms"]["h"]["counts"]
        # Totals are float sums, so ordering only matters up to rounding.
        assert forward["histograms"]["h"]["total"] == \
            pytest.approx(backward["histograms"]["h"]["total"])
        assert forward["timers"]["t"]["count"] == \
            backward["timers"]["t"]["count"]

    def test_mismatched_histogram_edges_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", edges=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError, match="edges differ"):
            reg.merge_snapshot(other.snapshot())


class TestCapture:
    @staticmethod
    def _task(n):
        registry = telemetry.get_registry()
        registry.counter("task.n").inc(n)
        registry.emit({"type": "task", "n": n})
        return n * 10

    def test_task_records_reach_the_parent_only_when_published(self):
        parent = MetricsRegistry()
        sink = telemetry.MemorySink()
        parent.add_sink(sink)
        with telemetry.use_telemetry(parent):
            result, snapshot = telemetry.run_captured(self._task, 3)
            assert result == 30 and sink.records == []
            assert "task.n" not in parent.counters
            telemetry.publish_captured(snapshot, run_seed=7)
        assert sink.records == [{"type": "task", "n": 3, "run_seed": 7}]
        assert parent.counter("task.n").value == 3

    def test_nothing_captured_while_disabled(self):
        with telemetry.use_telemetry(MetricsRegistry(), on=False):
            assert telemetry.run_captured(self._task, 2) == (20, None)


class TestEnablement:
    @pytest.fixture(autouse=True)
    def _restore(self):
        yield
        telemetry.reset_enabled()

    def test_off_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv(telemetry.TELEMETRY_ENV_VAR, raising=False)
        telemetry.reset_enabled()
        assert telemetry.enabled() is False

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("on", True),
        ("0", False), ("false", False), ("off", False),
        ("no", False), ("", False),
    ])
    def test_env_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV_VAR, raw)
        telemetry.reset_enabled()
        assert telemetry.enabled() is expected

    def test_set_enabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV_VAR, "1")
        telemetry.set_enabled(False)
        assert telemetry.enabled() is False

    def test_use_telemetry_restores_flag_and_registry(self):
        telemetry.set_enabled(False)
        outer = telemetry.get_registry()
        fresh = MetricsRegistry()
        with telemetry.use_telemetry(fresh):
            assert telemetry.enabled() is True
            assert telemetry.get_registry() is fresh
        assert telemetry.enabled() is False
        assert telemetry.get_registry() is outer
