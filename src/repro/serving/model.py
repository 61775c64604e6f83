"""The daemon's one served model, hot-swapped with zero downtime.

A :class:`ServedModel` holds a loaded detector (its encoding
dictionaries and network), a long-lived
:class:`~repro.inference.InferenceEngine` around the network, and the
cross-call :class:`~repro.inference.PredictionCache`, which outlives
model swaps.

The served version is the swap count: 0 at start, one more per
:meth:`ServedModel.swap`.  A swap builds a fresh engine around the
incoming model, whatever its architecture, vocabulary or shapes, and
empties the kept cache, so no entry computed by the outgoing model is
ever served for the incoming one -- whatever ``weights_version`` either
model reports (every archive loads at 1).

The swap happens under the swap lock, the same lock the
:class:`~repro.serving.batcher.MicroBatcher` holds while encoding and
scoring a micro-batch: a swap waits for the in-flight batch, and the
next batch sees the new detector, engine and version together.  No
request is ever encoded by one model and scored by another.
"""

from __future__ import annotations

import threading

from pathlib import Path

from repro import telemetry
from repro.errors import ConfigurationError
from repro.inference import InferenceEngine, PredictionCache


def _load(detector=None, path: "str | Path | None" = None):
    if (detector is None) == (path is None):
        raise ConfigurationError("provide exactly one of detector= or path=")
    if detector is None:
        from repro.models.serialization import load_detector
        detector = load_detector(path)
    if detector.model is None or detector.prepared is None:
        raise ConfigurationError("cannot serve an unfitted detector")
    detector.model.eval()
    return detector


class ServedModel:
    """The daemon's servable model state.

    Parameters
    ----------
    detector, path:
        Exactly one: a fitted detector or a detector archive path.
    cache_size:
        The :class:`~repro.inference.PredictionCache` capacity.

    Attributes
    ----------
    detector:
        The loaded :class:`~repro.models.ErrorDetector` (dictionaries +
        model; the batcher encodes cells with it).
    engine:
        The serving :class:`~repro.inference.InferenceEngine` (dedup +
        cache fast path around ``detector.model``).
    cache:
        The cross-call prediction cache; kept across swaps, and emptied
        by each.
    lock:
        Swap lock: held by the batcher for the duration of each
        micro-batch and by :meth:`swap`.
    swaps:
        How many swaps this model has absorbed: the served version.
    source:
        Path of the most recently loaded archive (``None`` for
        in-memory detectors).
    """

    def __init__(self, detector=None, path: "str | Path | None" = None,
                 cache_size: int = 65536):
        self.detector = _load(detector, path)
        self.cache = PredictionCache(capacity=cache_size)
        self.engine = InferenceEngine(self.detector.model, cache=self.cache)
        self.lock = threading.RLock()
        self.swaps = 0
        self.source = None if path is None else str(path)

    @property
    def version(self) -> int:
        """The served version: the swap count."""
        return self.swaps

    def swap(self, detector=None, path: "str | Path | None" = None) -> dict:
        """Hot-swap the served model with zero downtime.

        Returns ``{"version", "swaps"}``.
        """
        loaded = _load(detector, path)
        engine = InferenceEngine(loaded.model, cache=self.cache)
        with self.lock:
            # The cache keys entries by the model's own weights_version,
            # which two models may share (every archive loads at 1).
            self.cache.invalidate()
            self.detector, self.engine = loaded, engine
            self.swaps += 1
            if path is not None:
                self.source = str(path)
            outcome = {"version": self.version, "swaps": self.swaps}
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("serve.swaps").inc()
            registry.emit({"type": "model_swap",
                           "version": outcome["version"]})
        return outcome

    def stats(self) -> dict:
        return {
            "version": self.version,
            "swaps": self.swaps,
            "source": self.source,
            "cache": self.cache.stats(),
            "inference": self.engine.total_stats.as_dict(),
        }
