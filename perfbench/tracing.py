"""Spans around the program's public entry points, and their arithmetic.

The traced run installs wrappers where callers look each function up
(a module attribute, or a method on its class), so the program itself
is unmodified.  Each span records its name, start, end, parent span and
thread; spans of one daemon request also carry that request's id,
``"<client port>:<line number on that connection>"``.  Spans stay in
memory and are written out once, when the traced process exits.

:func:`self_times` and :func:`layer_metrics` turn the spans into the
per-layer metrics that ``run.py --trace 1`` prints.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    thread: int
    request: str | None = None
    data: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def wrap(self, name: str | None, fn: Callable,
             on_enter: Callable | None = None,
             on_exit: Callable | None = None) -> Callable:
        """``fn`` inside a span called ``name`` (no span when ``None``).

        ``on_enter(state, args)`` runs before the call and may return
        the span's initial extra-data dict; ``on_exit(data, args,
        result)`` runs after it and may add to that dict.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = recorder._state()
            data = (on_enter(state, args) if on_enter is not None
                    else None) or {}
            if name is None:
                return fn(*args, **kwargs)
            stack = state.stack
            parent = stack[-1] if stack else -1
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans[index] = Span(
                    name, start, end, parent, threading.get_ident(),
                    state.request, data)
            if on_exit is not None:
                on_exit(data, args, result)
            return result

        return wrapper

    def install(self, target: str, name: str | None,
                on_enter: Callable | None = None,
                on_exit: Callable | None = None) -> bool:
        """Wrap ``"module:attr.path"`` in place; record it if missing."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return False
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(
                self.wrap(name, raw.__func__, on_enter, on_exit)))
        else:
            setattr(owner, attr, self.wrap(name, raw, on_enter, on_exit))
        return True

    def dump(self, path: str, **extra) -> None:
        # A span still open at exit (a daemon thread mid-call) keeps its
        # slot, so parent indices stay valid.
        spans = [[s.name, s.start, s.end, s.parent, s.thread, s.request,
                  s.data or None] if s is not None
                 else ["(open)", 0.0, 0.0, -1, 0, None, None]
                 for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "missing": self.missing, **extra},
                      handle)


def load_spans(raw: list) -> list[Span]:
    return [Span(name, start, end, parent, thread, request, data)
            for name, start, end, parent, thread, request, data in raw]


# -- what the traced run wraps ---------------------------------------------------


def _inference_stats(data: dict, args, result) -> None:
    stats = getattr(args[0], "last_stats", None)
    if stats is not None:
        data.update(rows=stats.n_rows, unique=stats.n_unique,
                    evaluated=stats.n_evaluated, hits=stats.cache_hits,
                    misses=stats.cache_misses)


def _ingest_report(data: dict, args, result) -> None:
    stats = getattr(result, "stats", None)
    if stats is None:
        return
    data.update(files=stats.files_discovered, skipped=stats.files_skipped,
                fallbacks=stats.encoding_fallbacks,
                recovered=stats.rows_recovered)


def _update_record(data: dict, args, result) -> None:
    if isinstance(result, dict):
        data["rescored"] = result.get("n_rescored", 0)


def _handler_connection(state, args) -> None:
    # One handler thread per accepted connection: key its requests by
    # the client's port, which the load generator also knows.
    state.connection = args[0].client_address[1]
    state.line = 0


def _next_request(state, args) -> None:
    state.line = getattr(state, "line", 0) + 1
    state.request = f"{getattr(state, 'connection', 0)}:{state.line}"


def _request_op(data: dict, args, result) -> None:
    try:
        data["op"] = json.loads(args[1]).get("op")
    except (ValueError, AttributeError):
        data["op"] = None


def _queue_waits(state, args) -> dict:
    # The batcher stamps each request with time.monotonic() when it is
    # queued; the batch starting is the end of that request's wait.
    now = time.monotonic()
    return {"waits": [now - getattr(item, "enqueued_at", now)
                      for item in args[1]]}


#: (target, span name, on_enter, on_exit).  Batch workloads install the
#: first group, the daemon the second; a target that no longer exists
#: is reported as a missing layer by name.  The hooks only read what
#: they find, so a changed return shape leaves a count at 0 instead of
#: breaking the traced program.
BATCH_TARGETS = (
    ("repro.cli:main", "cli.main", None, None),
    ("repro.cli:load", "datasets.load", None, None),
    ("repro.models.detector:prepare", "dataprep.prepare", None, None),
    ("repro.dataprep.splits:encode_cells", "dataprep.encode", None, None),
    ("repro.dataprep:encode_cells", "dataprep.encode", None, None),
    ("repro.io.detect:encode_cells", "dataprep.encode", None, None),
    ("repro.sampling.diverset:DiverSet.select", "sampling.select", None, None),
    ("repro.nn.training:Trainer.fit", "nn.fit", None, None),
    ("repro.nn.kernels:RNNLevelFunction.forward", "nn.kernel_fwd", None, None),
    ("repro.nn.kernels:RNNLevelFunction.backward", "nn.kernel_bwd", None, None),
    ("repro.nn.attention:PatternEmbedFunction.forward", "nn.kernel_fwd",
     None, None),
    ("repro.nn.attention:PatternEmbedFunction.backward", "nn.kernel_bwd",
     None, None),
    ("repro.nn.attention:AttentionPoolFunction.forward", "nn.kernel_fwd",
     None, None),
    ("repro.nn.attention:AttentionPoolFunction.backward", "nn.kernel_bwd",
     None, None),
    ("repro.nn.kernels:DenseSoftmaxBCEFunction.forward", "nn.head", None, None),
    ("repro.nn.kernels:DenseSoftmaxBCEFunction.backward", "nn.head",
     None, None),
    ("repro.nn.optim:RMSprop.step", "nn.optim", None, None),
    ("repro.inference.engine:InferenceEngine.predict_proba",
     "inference.predict", None, _inference_stats),
    ("repro.io.detect:ingest_path", "io.ingest", None, _ingest_report),
    ("repro.io.ingest:discover", "io.discover", None, None),
    ("repro.io.ingest:read_delimited", "io.read", None, None),
    ("repro.io.ingest:read_sqlite", "io.read", None, None),
    ("repro.io.ingest:analyze_table", "io.analyze", None, None),
    ("repro.io.detect:conforming_mask", "io.conform", None, None),
)

SERVE_TARGETS = (
    ("repro.models.serialization:load_detector", "models.load_archive",
     None, None),
    ("repro.serving.daemon:_Handler.handle", None, _handler_connection, None),
    ("repro.serving.daemon:ServingDaemon.handle_line", "serving.handle",
     _next_request, _request_op),
    ("repro.serving.session:_encode", "serving.encode", None, None),
    ("repro.serving.batcher:MicroBatcher.predict", "serving.wait", None, None),
    ("repro.serving.batcher:MicroBatcher._execute", "serving.batch",
     _queue_waits, None),
    ("repro.serving.session:TableSession.update", "serving.update",
     None, _update_record),
    ("repro.inference.engine:InferenceEngine.predict_proba",
     "inference.predict", None, _inference_stats),
    ("repro.nn.kernels:RNNLevelFunction.forward", "nn.kernel_fwd", None, None),
    ("repro.nn.attention:PatternEmbedFunction.forward", "nn.kernel_fwd",
     None, None),
    ("repro.nn.attention:AttentionPoolFunction.forward", "nn.kernel_fwd",
     None, None),
    ("repro.nn.training:Trainer.fit", "nn.fit", None, None),
    ("repro.nn.optim:RMSprop.step", "nn.optim", None, None),
)


# -- span arithmetic -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans naming it as parent (always the same
    thread); their intervals are clipped to the parent and merged, so
    overlapping or out-of-range children are never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.duration - covered)
    return out


#: Per-layer time metrics: summed self time of the named spans, seconds.
SELF_SECONDS = {
    "nn.fit_s": "nn.fit",
    "nn.kernel_fwd_s": "nn.kernel_fwd",
    "nn.kernel_bwd_s": "nn.kernel_bwd",
    "nn.head_s": "nn.head",
    "nn.optim_s": "nn.optim",
    "dataprep.prepare_s": "dataprep.prepare",
    "dataprep.encode_s": "dataprep.encode",
    "sampling.select_s": "sampling.select",
    "io.discover_s": "io.discover",
    "io.read_s": "io.read",
    "io.analyze_s": "io.analyze",
    "io.conform_s": "io.conform",
    "inference.predict_s": "inference.predict",
    "datasets.generate_s": "datasets.load",
    "experiments.driver_self_s": "cli.main",
    "models.load_archive_s": "models.load_archive",
}

#: Spans that stand for a whole user operation: a CLI call, or one
#: daemon request.  Their self time is the time no layer accounts for.
ROOT_SPANS = ("cli.main", "serving.handle")


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def _p50_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run (0 where a layer did not run)."""
    selfs = self_times(spans)
    out = {metric: 0.0 for metric in SELF_SECONDS}
    by_span = {span_name: metric for metric, span_name in SELF_SECONDS.items()}
    for span, own in zip(spans, selfs):
        metric = by_span.get(span.name)
        if metric is not None:
            out[metric] += own

    def data(name: str) -> list[dict]:
        return [s.data or {} for s in spans if s.name == name]

    def total(name: str, key: str) -> int:
        return sum(d.get(key, 0) for d in data(name))

    out["nn.batches"] = float(sum(1 for s in spans if s.name == "nn.optim"))
    # The share of kernel forwards that score cells rather than train.
    out["inference.kernel_fwd_s"] = sum(
        own for span, own in zip(spans, selfs)
        if span.name == "nn.kernel_fwd"
        and _has_ancestor(spans, span, "inference.predict"))
    for metric, key in (("io.files", "files"), ("io.skipped", "skipped"),
                        ("io.encoding_fallbacks", "fallbacks"),
                        ("io.rows_recovered", "recovered")):
        out[metric] = float(total("io.ingest", key))
    rows = total("inference.predict", "rows")
    lookups = (total("inference.predict", "hits")
               + total("inference.predict", "misses"))
    out["inference.rows"] = float(rows)
    out["inference.forward_rows"] = float(total("inference.predict",
                                                "evaluated"))
    out["inference.unique_ratio"] = (total("inference.predict", "unique")
                                     / rows if rows else 0.0)
    out["inference.cache_hit_rate"] = (total("inference.predict", "hits")
                                       / lookups if lookups else 0.0)
    for op in ("score", "update"):
        out[f"serving.handle_ms.{op}"] = _p50_ms(
            [s.duration for s in spans
             if s.name == "serving.handle" and (s.data or {}).get("op") == op])
    out["serving.queue_wait_ms"] = _p50_ms(
        [w for d in data("serving.batch") for w in d.get("waits", ())])
    batches = data("serving.batch")
    out["serving.batch_items"] = (
        sum(len(d.get("waits", ())) for d in batches) / len(batches)
        if batches else 0.0)
    out["serving.encode_ms"] = _p50_ms(
        [s.duration for s in spans if s.name == "serving.encode"])
    updates = data("serving.update")
    out["serving.rescored_rows"] = (total("serving.update", "rescored")
                                    / len(updates) if updates else 0.0)
    roots = [(s, own) for s, own in zip(spans, selfs)
             if s.name in ROOT_SPANS and s.parent < 0]
    root_time = sum(s.duration for s, _ in roots)
    out["trace.unattributed_pct"] = (100.0 * sum(own for _, own in roots)
                                     / root_time if root_time else 0.0)
    return out
