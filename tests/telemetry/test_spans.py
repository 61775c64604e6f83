"""Tests for the nestable tracing spans."""

import pytest

from repro import telemetry
from repro.telemetry import MemorySink, MetricsRegistry, current_span, span


@pytest.fixture()
def registry():
    reg = MetricsRegistry()
    reg.add_sink(MemorySink())
    with telemetry.use_telemetry(reg):
        yield reg


def _records(registry):
    return registry.sinks[0].records


class TestSpan:
    def test_emits_record_and_timer(self, registry):
        with span("work") as s:
            s.add(items=3)
        [record] = _records(registry)
        assert record["type"] == "span"
        assert record["name"] == "work"
        assert record["parent"] is None
        assert record["depth"] == 0
        assert record["items"] == 3
        assert record["wall_s"] >= 0.0
        assert record["cpu_s"] >= 0.0
        timer = registry.timers["span.work"]
        assert timer.count == 1
        assert timer.last == record["wall_s"]

    def test_nesting_links_parent_and_depth(self, registry):
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = _records(registry)  # inner exits (and emits) first
        assert inner["name"] == "inner"
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert outer["name"] == "outer"
        assert outer["parent"] is None

    def test_current_span_tracks_innermost(self, registry):
        assert current_span() is None
        with span("outer"):
            with span("inner"):
                assert current_span().name == "inner"
            assert current_span().name == "outer"
        assert current_span() is None

    def test_keyword_fields_at_creation(self, registry):
        with span("fit", epochs=7):
            pass
        assert _records(registry)[0]["epochs"] == 7

    def test_spanned_function_runs_in_a_span_per_call(self, registry):
        @telemetry.spanned("stage")
        def stage(x, *, y):
            assert current_span().name == "stage"
            return x + y

        assert stage(1, y=2) == 3 and stage(2, y=2) == 4
        assert [r["name"] for r in _records(registry)] == ["stage", "stage"]
        assert stage.__name__ == "stage"

    def test_stack_unwinds_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with span("broken"):
                raise RuntimeError("boom")
        assert current_span() is None
        assert _records(registry)[0]["name"] == "broken"


class TestDisabled:
    def test_returns_shared_null_span(self):
        telemetry.set_enabled(False)
        try:
            first = span("anything")
            second = span("other")
            assert first is second
            with first as s:
                s.add(ignored=True)  # must not raise
            assert current_span() is None
        finally:
            telemetry.reset_enabled()

    def test_no_records_or_metrics_when_disabled(self):
        reg = MetricsRegistry()
        reg.add_sink(MemorySink())
        telemetry.set_enabled(False)
        try:
            with telemetry.use_registry(reg):
                with span("quiet"):
                    pass
        finally:
            telemetry.reset_enabled()
        assert _records(reg) == []
        assert reg.timers == {}
