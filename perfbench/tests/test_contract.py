"""Printed metric names and units match BENCHMARK.json."""

import json
import re
from pathlib import Path

import pytest

from perfbench import run, tracing

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_benchmark_json(spec):
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert run.declared_metrics("end_to_end") == run.END_TO_END
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match_benchmark_json(spec):
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    # Everything the span arithmetic computes is printed by serve-mixed's
    # traced run; the rest are filled in by run.py (client side, import
    # time, overhead).
    computed = set(tracing.layer_metrics([]))
    assert computed <= set(run.SERVE_PER_LAYER)
    assert set(run.SERVE_PER_LAYER) - computed == {
        "client.wire_ms", "client.late_ms", "setup.import_s",
        "trace.overhead_pct", "trace.missing_layers"}


def test_workloads_and_names_are_well_formed(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.SERVE not in run.WORKLOADS
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in {*names, *run.SERVE_END_TO_END,
                                       *run.SERVE_PER_LAYER, run.SERVE})
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_trace_summary_names_missing_layers(capsys):
    raw = {"spans": [], "missing": ["repro.gone:helper"], "import_s": 0.5}
    metrics = run.trace_summary(raw, untraced_wall=2.0, traced_wall=2.2)
    assert set(metrics) == set(run.SERVE_PER_LAYER)
    assert metrics["trace.missing_layers"] == 1.0
    assert abs(metrics["trace.overhead_pct"] - 10.0) < 1e-9
    assert "repro.gone:helper" in capsys.readouterr().err
