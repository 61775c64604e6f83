"""Metric primitives and the process-wide :class:`MetricsRegistry`.

The registry is the single rendezvous point of the instrumentation
subsystem: hot paths record into named metrics (counters, gauges,
histograms with fixed bucket edges, monotonic timers) and emit structured
records to the attached sinks (see :mod:`repro.telemetry.sinks`).

Overhead policy: every instrumented hot path guards its recording with
:func:`enabled`, which resolves the ``REPRO_TELEMETRY`` environment
variable once and caches the answer.  With telemetry off (the default)
an instrumented call site costs one function call and one boolean test
-- nothing is allocated, no metric objects are touched -- so the
bit-for-bit and speedup contracts of the compute paths are unaffected.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

from repro.errors import ConfigurationError
from repro.telemetry.sinks import MemorySink

#: Environment variable that switches instrumentation on (``1``/``true``).
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Default histogram bucket upper edges for latencies, in seconds.
DEFAULT_LATENCY_EDGES = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def snapshot(self) -> int:
        """The current value (plain int, merge-friendly)."""
        return self.value


class Gauge:
    """A last-value-wins float metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the most recent observation."""
        self.value = float(value)

    def snapshot(self) -> float:
        """The current value."""
        return self.value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max accumulators.

    Parameters
    ----------
    name:
        Metric name.
    edges:
        Strictly ascending bucket *upper* edges (inclusive).  An
        observation above the last edge lands in one extra overflow
        bucket, so ``len(counts) == len(edges) + 1``.
    """

    __slots__ = ("name", "edges", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES):
        edges = tuple(float(e) for e in edges)
        if not edges or list(edges) != sorted(set(edges)):
            raise ConfigurationError(
                f"histogram edges must be strictly ascending and non-empty, "
                f"got {edges}"
            )
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 before the first)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Flat mergeable record of edges, bucket counts and accumulators."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class Timer:
    """A monotonic accumulating timer (``time.perf_counter`` based).

    ``observe(seconds)`` folds a measured duration in; :meth:`time` is a
    context manager measuring a block.  Totals are wall-clock seconds.
    """

    __slots__ = ("name", "total", "count", "last")

    def __init__(self, name: str):
        self.name = name
        self.total = 0.0
        self.count = 0
        self.last = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one measured duration into the accumulators."""
        seconds = float(seconds)
        self.total += seconds
        self.count += 1
        self.last = seconds

    @contextlib.contextmanager
    def time(self) -> Iterator[None]:
        """Measure the duration of the ``with`` block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)

    @property
    def mean(self) -> float:
        """Mean duration per observation (0.0 before the first)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Flat mergeable record of the accumulators."""
        return {"total": self.total, "count": self.count, "last": self.last}


class MetricsRegistry:
    """Named metrics plus the sinks structured records are emitted to.

    Metric accessors are create-or-get: the first call for a name creates
    the metric, later calls return the same object.  A name can only ever
    hold one metric kind; reuse across kinds raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, Timer] = {}
        self._sinks: list = []

    # -- metric accessors ---------------------------------------------------

    def _check_unique(self, name: str, kind: dict) -> None:
        for family in (self.counters, self.gauges, self.histograms,
                       self.timers):
            if family is not kind and name in family:
                raise ConfigurationError(
                    f"metric name {name!r} is already used by another kind"
                )

    def counter(self, name: str) -> Counter:
        """Create-or-get the counter called ``name``."""
        metric = self.counters.get(name)
        if metric is None:
            self._check_unique(name, self.counters)
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Create-or-get the gauge called ``name``."""
        metric = self.gauges.get(name)
        if metric is None:
            self._check_unique(name, self.gauges)
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_LATENCY_EDGES) -> Histogram:
        """Create-or-get the histogram called ``name``.

        ``edges`` only applies on creation; a later call with different
        edges returns the existing histogram unchanged.
        """
        metric = self.histograms.get(name)
        if metric is None:
            self._check_unique(name, self.histograms)
            metric = self.histograms[name] = Histogram(name, edges)
        return metric

    def timer(self, name: str) -> Timer:
        """Create-or-get the timer called ``name``."""
        metric = self.timers.get(name)
        if metric is None:
            self._check_unique(name, self.timers)
            metric = self.timers[name] = Timer(name)
        return metric

    # -- sinks and records --------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach a sink; it receives every subsequently emitted record."""
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach a previously attached sink (no-op if absent)."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple:
        """The currently attached sinks."""
        return tuple(self._sinks)

    def emit(self, record: Mapping) -> None:
        """Forward one structured record (a flat dict) to every sink."""
        for sink in self._sinks:
            sink.emit(dict(record))

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Merge-friendly copy of every metric's current state."""
        return {
            "counters": {n: c.snapshot() for n, c in self.counters.items()},
            "gauges": {n: g.snapshot() for n, g in self.gauges.items()},
            "histograms": {n: h.snapshot()
                           for n, h in self.histograms.items()},
            "timers": {n: t.snapshot() for n, t in self.timers.items()},
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry: counters/histograms/timers add, gauges last-write-wins."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, state in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, state["edges"])
            if tuple(state["edges"]) != hist.edges:
                raise ConfigurationError(
                    f"histogram {name!r} edges differ between snapshots"
                )
            hist.counts = [a + b for a, b in zip(hist.counts, state["counts"])]
            hist.total += state["total"]
            hist.count += state["count"]
            for bound, pick in (("min", min), ("max", max)):
                theirs = state.get(bound)
                ours = getattr(hist, bound)
                if theirs is not None:
                    setattr(hist, bound,
                            theirs if ours is None else pick(ours, theirs))
        for name, state in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.total += state["total"]
            timer.count += state["count"]
            timer.last = state["last"]

    def reset(self) -> None:
        """Drop every metric (sinks stay attached)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.timers.clear()


def merge_snapshots(snapshots: Sequence[Mapping]) -> dict:
    """Counter-wise merge of many :meth:`MetricsRegistry.snapshot` dicts.

    Used by the experiment runner to aggregate per-task records collected
    in worker processes into one experiment-wide view.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def run_captured(fn: Callable[..., Any], *args) -> tuple[Any, dict | None]:
    """Call ``fn(*args)`` under a task-local registry when telemetry is on.

    Returns the call's result and the registry's :meth:`snapshot`, with
    the records its sinks would have received under ``"records"``
    (``None`` with telemetry off).  A task captured this way touches no
    shared sink or metric, so it may run in a worker process; the
    parent hands the snapshot to :func:`publish_captured`.
    """
    if not enabled():
        return fn(*args), None
    registry = MetricsRegistry()
    capture = MemorySink()
    registry.add_sink(capture)
    with use_registry(registry):
        result = fn(*args)
    snapshot = registry.snapshot()
    # merge_snapshot ignores the extra key.
    snapshot["records"] = capture.records
    return result, snapshot


def publish_captured(snapshot: Mapping, **fields) -> None:
    """Re-emit a :func:`run_captured` snapshot's records into the process
    registry's sinks (each with ``fields`` added), then merge its metrics."""
    registry = get_registry()
    for record in snapshot.get("records", ()):
        registry.emit({**record, **fields})
    registry.merge_snapshot(snapshot)


# -- process-wide state ------------------------------------------------------

_registry = MetricsRegistry()
_enabled: bool | None = None


def get_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code records into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` as the process-wide registry."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enabled() -> bool:
    """Whether instrumentation is on (cached ``REPRO_TELEMETRY`` lookup)."""
    global _enabled
    if _enabled is None:
        raw = os.environ.get(TELEMETRY_ENV_VAR, "")
        _enabled = raw.strip().lower() not in ("", "0", "false", "off", "no")
    return _enabled


def set_enabled(on: bool) -> None:
    """Switch instrumentation on or off at runtime (overrides the env)."""
    global _enabled
    _enabled = bool(on)


def reset_enabled() -> None:
    """Forget the runtime/env decision; re-read the environment next time."""
    global _enabled
    _enabled = None


@contextlib.contextmanager
def use_telemetry(registry: MetricsRegistry | None = None,
                  on: bool = True) -> Iterator[MetricsRegistry]:
    """Temporarily enable (or disable) telemetry, optionally swapping in a
    fresh registry.  The previous enablement and registry are restored on
    exit -- the idiom used by the test suite and the per-task capture of
    the experiment runner."""
    global _enabled
    previous_flag = _enabled
    target = registry if registry is not None else _registry
    set_enabled(on)
    try:
        if registry is not None:
            with use_registry(registry):
                yield target
        else:
            yield target
    finally:
        _enabled = previous_flag
