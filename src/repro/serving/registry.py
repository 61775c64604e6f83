"""Per-tenant model registry with zero-downtime hot swap.

Each tenant owns one :class:`TenantModel`: a loaded detector (for its
encoding dictionaries), a long-lived
:class:`~repro.inference.InferenceEngine`, and the tenant's cross-call
:class:`~repro.inference.PredictionCache` -- the cache outlives model
swaps, so its "flush exactly once per weights version" contract
(:meth:`~repro.inference.PredictionCache.sync_version`) is what keeps
warm entries from ever leaking across versions.

Hot swap (:meth:`ModelRegistry.publish`) comes in two flavours:

* **in-place** -- the new archive has the same architecture, state-dict
  layout and encoding dictionaries, so the new weights are loaded into
  the *existing* model object with ``load_state_dict``.  That bumps
  ``Module.weights_version``, which is the single signal every
  downstream consumer already honours: the prediction cache flushes on
  its next lookup and sessions notice the swap -- no engine rebuild, no
  downtime.
* **replace** -- anything else (different architecture, vocabulary or
  shapes) swaps in a freshly built engine around the new model, still
  sharing the tenant's cache.  The new model's ``weights_version`` is
  forced strictly past the old entry's, so the version-keyed cache and
  every session's swap detection see the replacement even when both
  models report the same archive-load version.

Either way the publish happens under the tenant's swap lock, the same
lock the :class:`~repro.serving.batcher.MicroBatcher` holds while
executing a micro-batch: a swap waits for the in-flight batch, and the
next batch sees the new version atomically.  No request is ever scored
half-old, half-new.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.errors import ConfigurationError
from repro.inference import InferenceEngine, PredictionCache

#: The tenant implicitly used by single-model daemons.
DEFAULT_TENANT = "default"


@dataclass
class TenantModel:
    """One tenant's servable model state.

    Attributes
    ----------
    tenant:
        Registry key.
    detector:
        The loaded :class:`~repro.models.ErrorDetector` (dictionaries +
        model; used for encoding new values).
    engine:
        The serving :class:`~repro.inference.InferenceEngine` (dedup +
        cache fast path around ``detector.model``).
    cache:
        The tenant's cross-call prediction cache; survives swaps.
    lock:
        Swap lock: held by the batcher for the duration of each
        micro-batch and by :meth:`ModelRegistry.publish` for the swap.
    swaps:
        How many publishes this tenant has absorbed.
    source:
        Path of the most recently published archive (``None`` for
        in-memory detectors).
    """

    tenant: str
    detector: object
    engine: InferenceEngine
    cache: PredictionCache
    lock: threading.RLock = field(default_factory=threading.RLock)
    swaps: int = 0
    source: str | None = None

    @property
    def version(self) -> int:
        """The served model's current ``weights_version``."""
        return int(getattr(self.engine.model, "weights_version", 0))

    def stats(self) -> dict:
        return {
            "version": self.version,
            "swaps": self.swaps,
            "source": self.source,
            "cache": self.cache.stats(),
            "inference": self.engine.total_stats.as_dict(),
        }


def _dictionary_signature(detector) -> tuple:
    """What must match for two detectors to encode identically."""
    prepared = detector.prepared
    from repro.models.serialization import _dictionary_chars
    return (detector.architecture,
            _dictionary_chars(prepared.char_index),
            tuple(prepared.attributes),
            int(prepared.max_length))


class ModelRegistry:
    """Tenant name -> servable model, with hot swap.

    Parameters
    ----------
    cache_size:
        Per-tenant :class:`~repro.inference.PredictionCache` capacity.
    """

    def __init__(self, cache_size: int = 65536):
        self.cache_size = cache_size
        self._tenants: dict[str, TenantModel] = {}
        self._lock = threading.RLock()

    def _load(self, detector=None, path: "str | Path | None" = None):
        if (detector is None) == (path is None):
            raise ConfigurationError(
                "provide exactly one of detector= or path=")
        if detector is None:
            from repro.models.serialization import load_detector
            detector = load_detector(path)
        if detector.model is None or detector.prepared is None:
            raise ConfigurationError("cannot register an unfitted detector")
        return detector

    def _build_engine(self, detector, cache: PredictionCache) -> InferenceEngine:
        detector.model.eval()
        return InferenceEngine(detector.model, cache=cache)

    # -- lookup -------------------------------------------------------------

    def get(self, tenant: str) -> TenantModel:
        """The tenant's entry; raises ``KeyError`` for unknown tenants."""
        with self._lock:
            return self._tenants[tenant]

    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tenants))

    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._tenants

    def stats(self) -> dict:
        with self._lock:
            entries = dict(self._tenants)
        return {tenant: entry.stats() for tenant, entry in entries.items()}

    # -- registration and hot swap ------------------------------------------

    def add(self, tenant: str = DEFAULT_TENANT, detector=None,
            path: "str | Path | None" = None) -> TenantModel:
        """Register a new tenant (use :meth:`publish` to swap later).

        Raises
        ------
        ConfigurationError
            When the tenant already exists.
        """
        loaded = self._load(detector, path)
        with self._lock:
            if tenant in self._tenants:
                raise ConfigurationError(
                    f"tenant {tenant!r} already registered; "
                    "use publish() to hot-swap")
            cache = PredictionCache(capacity=self.cache_size)
            entry = TenantModel(
                tenant=tenant, detector=loaded,
                engine=self._build_engine(loaded, cache), cache=cache,
                source=None if path is None else str(path))
            self._tenants[tenant] = entry
        return entry

    def publish(self, tenant: str, detector=None,
                path: "str | Path | None" = None) -> dict:
        """Hot-swap a tenant's model with zero downtime.

        Unknown tenants are registered instead (publish-to-create).
        Returns ``{"tenant", "version", "mode", "swaps"}`` where
        ``mode`` is ``"created"``, ``"in-place"`` or ``"replace"``.
        """
        loaded = self._load(detector, path)
        with self._lock:
            entry = self._tenants.get(tenant)
            if entry is None:
                entry = self.add(tenant, detector=loaded)
                return {"tenant": tenant, "version": entry.version,
                        "mode": "created", "swaps": entry.swaps}
        # The swap lock serialises against in-flight micro-batches (the
        # publish waits for the running batch, and every later batch
        # sees the new weights version atomically) and against
        # concurrent publishes to the same tenant: the in-place
        # decision below must be taken against the detector actually
        # being replaced, not a snapshot another publish already
        # swapped out.
        with entry.lock:
            in_place = (_dictionary_signature(loaded)
                        == _dictionary_signature(entry.detector))
            if in_place:
                state = loaded.model.state_dict()
                current = entry.detector.model.state_dict()
                in_place = (state.keys() == current.keys()
                            and all(state[k].shape == current[k].shape
                                    for k in state))
            if in_place:
                # load_state_dict bumps weights_version -- the one
                # signal that flushes the prediction cache (exactly
                # once, on its next sync).
                entry.detector.model.load_state_dict(
                    loaded.model.state_dict())
                entry.detector.model.eval()
            else:
                # Force the served version to increase strictly.  Every
                # archive-loaded model sits at weights_version 1 (one
                # load_state_dict from 0), so swapping archive A for an
                # architecturally different archive B would otherwise
                # leave entry.version unchanged -- and the shared
                # PredictionCache (keyed by version) would serve A's
                # probabilities as B's, while sessions' swap detection
                # never fired.
                old_version = entry.version
                model = loaded.model
                if model.weights_version <= old_version:
                    model._weights_version = old_version
                    model.mark_weights_updated()
                entry.detector = loaded
                entry.engine = self._build_engine(loaded, entry.cache)
            entry.swaps += 1
            if path is not None:
                entry.source = str(path)
            version = entry.version
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("serve.swaps").inc()
            registry.emit({"type": "model_swap", "tenant": tenant,
                           "version": version,
                           "mode": "in-place" if in_place else "replace"})
        return {"tenant": tenant, "version": version,
                "mode": "in-place" if in_place else "replace",
                "swaps": entry.swaps}
