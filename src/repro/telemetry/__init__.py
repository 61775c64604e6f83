"""Zero-dependency runtime instrumentation for the hot paths.

The subsystem has three parts:

* a process-wide :class:`MetricsRegistry` of named counters, gauges,
  fixed-bucket histograms and monotonic timers
  (:mod:`repro.telemetry.registry`);
* nestable :func:`span` tracing contexts recording wall/CPU time and
  parent links (:mod:`repro.telemetry.spans`);
* pluggable sinks receiving structured records -- JSON-lines file,
  in-memory (tests), stderr summary (:mod:`repro.telemetry.sinks`) --
  plus an offline summarizer for the JSON-lines format
  (:mod:`repro.telemetry.summarize`).

Instrumentation is off by default and switched on with
``REPRO_TELEMETRY=1`` (or :func:`set_enabled` /
:func:`use_telemetry` at runtime); disabled call sites cost one boolean
check, preserving the bit-for-bit and speedup contracts of the compute
paths.  Instrumented sites: ``Trainer.fit`` (per-epoch loss, grad norm,
batch occupancy, wall time), the fused kernels and the graph backend
(per-layer forward/backward timers), ``InferenceEngine.predict_proba``
and ``PredictionCache`` (dedup/cache counters, representative-forward
latency histogram), the data path (``dataprep.prepare``,
``dataprep.encode``, ``sampling.select`` and ``inference.predict``
spans, added with :func:`spanned`), ``repro detect <path>`` (``io.read``
and ``io.analyze`` spans per file, a ``detect.table`` span per table),
the experiment runner and :mod:`repro.forkpool` (per-task
snapshots captured with :func:`run_captured`, possibly in worker
processes, and merged by :func:`publish_captured`) and the CLI
(``--telemetry-out`` / ``repro telemetry summarize``).
"""

from repro.telemetry.registry import (
    DEFAULT_LATENCY_EDGES,
    TELEMETRY_ENV_VAR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    enabled,
    get_registry,
    merge_snapshots,
    publish_captured,
    reset_enabled,
    run_captured,
    set_enabled,
    set_registry,
    use_registry,
    use_telemetry,
)
from repro.telemetry.sinks import (
    JsonlSink,
    MemorySink,
    Sink,
    StderrSummarySink,
)
from repro.telemetry.spans import Span, current_span, span, spanned
from repro.telemetry.summarize import (
    percentile_from_buckets,
    read_records,
    render_summary,
    summarize_histogram,
    summarize_jsonl,
    summarize_records,
)

__all__ = [
    "DEFAULT_LATENCY_EDGES",
    "TELEMETRY_ENV_VAR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "enabled",
    "get_registry",
    "merge_snapshots",
    "publish_captured",
    "reset_enabled",
    "run_captured",
    "set_enabled",
    "set_registry",
    "use_registry",
    "use_telemetry",
    "JsonlSink",
    "MemorySink",
    "Sink",
    "StderrSummarySink",
    "Span",
    "current_span",
    "span",
    "spanned",
    "percentile_from_buckets",
    "read_records",
    "render_summary",
    "summarize_histogram",
    "summarize_jsonl",
    "summarize_records",
]
