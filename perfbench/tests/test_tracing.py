"""Span recording and self-time arithmetic."""

import json
import sys
import types

import pytest

from perfbench import tracing
from perfbench.tracing import Span


def _span(name, start, end, parent=-1, request=None, **data):
    return Span(name, start, end, parent, 1, request, data)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("nn.fit", 1.0, 3.0, parent=0),
        _span("nn.fit", 2.0, 5.0, parent=0),      # overlaps its sibling
        _span("dataprep.prepare", 8.0, 12.0, parent=0),  # runs past the parent
        _span("nn.kernel_fwd", 1.5, 2.5, parent=1),
        _span("nn.kernel_bwd", 2.5, 2.75, parent=1),
    ]
    selfs = tracing.self_times(spans)
    # Children cover [1, 5] and [8, 10] of the root: 4 + 2 seconds.
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.0 - 1.25)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4:] == pytest.approx([1.0, 0.25])


def test_layer_metrics_partition_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("nn.fit", 1.0, 6.0, parent=0),
        _span("nn.kernel_fwd", 2.0, 3.0, parent=1),
        _span("nn.optim", 3.0, 3.5, parent=1),
        _span("nn.optim", 4.0, 4.5, parent=1),
        _span("inference.predict", 7.0, 8.0, parent=0, rows=10, unique=4,
              evaluated=3, hits=1, misses=3),
        _span("nn.kernel_fwd", 7.2, 7.6, parent=5),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["nn.fit_s"] == pytest.approx(3.0)
    assert metrics["nn.kernel_fwd_s"] == pytest.approx(1.4)
    # The scoring part of the kernel forwards, already inside the above.
    assert metrics["inference.kernel_fwd_s"] == pytest.approx(0.4)
    assert metrics["nn.optim_s"] == pytest.approx(1.0)
    assert metrics["nn.batches"] == 2
    assert metrics["inference.predict_s"] == pytest.approx(0.6)
    assert metrics["inference.unique_ratio"] == pytest.approx(0.4)
    assert metrics["inference.cache_hit_rate"] == pytest.approx(0.25)
    assert metrics["inference.forward_rows"] == 3
    assert metrics["experiments.driver_self_s"] == pytest.approx(4.0)
    assert metrics["trace.unattributed_pct"] == pytest.approx(40.0)
    # Self times and the unattributed rest add up to the root's wall.
    layers = sum(v for k, v in metrics.items()
                 if k.endswith("_s") and k not in (
                     "experiments.driver_self_s", "inference.kernel_fwd_s"))
    assert layers + metrics["experiments.driver_self_s"] == pytest.approx(10.0)


def test_serving_metrics_from_request_spans():
    spans = [
        _span("serving.handle", 0.0, 0.004, request="5:1", op="score"),
        _span("serving.encode", 0.0, 0.001, parent=0, request="5:1"),
        _span("serving.handle", 1.0, 1.002, request="5:2", op="update"),
        _span("serving.update", 1.0, 1.001, parent=2, request="5:2",
              rescored=1),
        _span("serving.batch", 0.002, 0.003, waits=[0.001, 0.003]),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["serving.handle_ms.score"] == pytest.approx(4.0)
    assert metrics["serving.handle_ms.update"] == pytest.approx(2.0)
    assert metrics["serving.encode_ms"] == pytest.approx(1.0)
    assert metrics["serving.queue_wait_ms"] == pytest.approx(2.0)
    assert metrics["serving.batch_items"] == 2
    assert metrics["serving.rescored_rows"] == 1
    assert metrics["nn.batches"] == 0


class _Target:
    @staticmethod
    def forward(x):
        return x + 1


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.Target = type("Target", (_Target,), {})
    module.helper = lambda value: value * 2
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


def test_install_wraps_lookups_and_reports_missing_targets(fake_module):
    recorder = tracing.Recorder()
    assert recorder.install("fake_layer:helper", "layer.helper")
    assert recorder.install("fake_layer:Target.forward", "layer.forward")
    assert not recorder.install("fake_layer:Target.gone", "layer.gone")
    assert not recorder.install("no_such_module:fn", "layer.none")
    assert recorder.missing == ["fake_layer:Target.gone", "no_such_module:fn"]
    assert fake_module.helper(3) == 6
    assert fake_module.Target.forward(1) == 2        # still a staticmethod
    assert fake_module.Target().forward(1) == 2
    names = [s.name for s in recorder.spans]
    assert names == ["layer.helper", "layer.forward", "layer.forward"]


def test_nested_calls_link_to_their_parent_and_survive_a_dump(tmp_path):
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    assert [(s.name, s.parent) for s in recorder.spans] == [("outer", -1),
                                                            ("inner", 0)]
    path = tmp_path / "spans.json"
    recorder.dump(str(path), import_s=0.1)
    raw = json.loads(path.read_text())
    loaded = tracing.load_spans(raw["spans"])
    assert [(s.name, s.parent) for s in loaded] == [("outer", -1),
                                                    ("inner", 0)]
    assert raw["import_s"] == 0.1
