"""The daemon's one served model, hot-swapped with zero downtime.

A :class:`ServedModel` holds a loaded detector (for its encoding
dictionaries), a long-lived :class:`~repro.inference.InferenceEngine`
around its network, and the cross-call
:class:`~repro.inference.PredictionCache` -- the cache outlives model
swaps, so its "flush exactly once per weights version" contract
(:meth:`~repro.inference.PredictionCache.sync_version`) is what keeps
warm entries from ever leaking across versions.

:meth:`ServedModel.swap` builds a fresh engine around the incoming
model, still sharing the cache, whatever its architecture, vocabulary
or shapes.  The incoming model's ``weights_version`` is forced strictly
past the served one, so the version-keyed cache and every session's
swap detection see the replacement even when both models report the
same archive-load version.

The swap happens under the swap lock, the same lock the
:class:`~repro.serving.batcher.MicroBatcher` holds while executing a
micro-batch: a swap waits for the in-flight batch, and the next batch
sees the new version atomically.  No request is ever scored half-old,
half-new.
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
        model; used for encoding new values).
    engine:
        The serving :class:`~repro.inference.InferenceEngine` (dedup +
        cache fast path around ``detector.model``).
    cache:
        The cross-call prediction cache; survives swaps.
    lock:
        Swap lock: held by the batcher for the duration of each
        micro-batch and by :meth:`swap`.
    swaps:
        How many swaps this model has absorbed.
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
        """The served model's current ``weights_version``."""
        return int(getattr(self.engine.model, "weights_version", 0))

    def swap(self, detector=None, path: "str | Path | None" = None) -> dict:
        """Hot-swap the served model with zero downtime.

        Returns ``{"version", "swaps"}``.
        """
        loaded = _load(detector, path)
        with self.lock:
            # Every archive-loaded model sits at weights_version 1 (one
            # load_state_dict from 0), so swapping archive A for archive
            # B would otherwise leave the version unchanged -- and the
            # shared PredictionCache (keyed by version) would serve A's
            # probabilities as B's, while sessions' swap detection
            # never fired.
            model = loaded.model
            if model.weights_version <= self.version:
                model._weights_version = self.version
                model.mark_weights_updated()
            self.detector = loaded
            self.engine = InferenceEngine(model, cache=self.cache)
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
