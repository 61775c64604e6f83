"""The dedup-memoized prediction fast path.

:class:`InferenceEngine` computes class probabilities for a batch of
encoded cells by (1) grouping duplicate rows with a
:class:`~repro.inference.index.DedupIndex`, (2) serving previously seen
representatives from the :class:`~repro.inference.cache.PredictionCache`,
(3) running the network only on the remaining unseen representatives --
in sorted-by-length trimmed chunks, reusing the dedup index's memoised
length order -- and (4) scattering per-representative probabilities back
to every row with ``np.take``.  Every step is value-preserving, so the
result is bit-for-bit identical to the naive chunked forward.

For TSB-RNN and ETSB-RNN on the fused backend, a call with more than
one chunk of representatives runs step (3)'s character BiRNN once per
distinct value string rather than once per representative, and inside
it once per distinct prefix or suffix
(:meth:`~repro.models.tsb_rnn.ValueBranch.distinct_value_states`); the
rest of the network then runs per chunk on the gathered value states.

Scratch buffers (the per-feature chunk gathers and the per-representative
"un-permutation" probability buffer) live on the engine and are reused
across calls, so steady-state serving performs no per-call hot-array
allocation beyond the returned output.
"""

from __future__ import annotations

import hashlib
import time

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.autograd import no_grad
from repro.errors import ConfigurationError
from repro.inference.cache import PredictionCache
from repro.inference.index import DedupIndex, build_dedup_index

#: Feature keys with a (batch, time) layout whose padded tails may be
#: trimmed to the chunk maximum.
SEQUENCE_KEYS = ("values",)


def model_fingerprint(model) -> str:
    """Stable identity of a model family and topology (not its weights).

    Hashes the class name plus every parameter's dotted path and shape.
    Two registered families (or two differently-sized instances of one
    family) can therefore never serve each other's cache entries, even
    when they share a tenant cache and happen to agree on
    ``weights_version``.  Weight *values* are deliberately excluded --
    within one topology, ``weights_version`` (via
    :meth:`~repro.inference.cache.PredictionCache.sync_version`) already
    invalidates on every update, and hashing weights per call would put
    a full-parameter scan on the hot path.
    """
    parts = [type(model).__name__]
    names = getattr(model, "named_parameters", None)
    if names is not None:
        parts.extend(f"{name}:{tuple(p.data.shape)}"
                     for name, p in sorted(names()))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


#: Inference chunks are evaluated in whole blocks of this many rows.
ROW_BLOCK = 4

#: Representatives whose distinct values share one prefix-shared value
#: pass (rounded to whole chunks): bounds the value states a call holds.
VALUE_WINDOW = 4096


def row_block_index(n_rows: int) -> np.ndarray:
    """Row indices ``0..n_rows-1``, duplicate-padded with the last row to
    a multiple of :data:`ROW_BLOCK`.

    BLAS rounds a GEMM row by where it lands: a ``(1, k) @ (k, n)``
    product takes a vector kernel, and narrow products such as the
    classifier's ``(m, 32) @ (32, 2)`` round a row differently unless it
    sits in a full 4-row block.  A row's forward bits would then depend
    on how it happened to be batched.  Every inference path therefore
    evaluates whole row blocks (the duplicated rows' outputs are
    discarded), which keeps per-row outputs independent of batch
    composition -- the invariant the dedup fast path's bit-for-bit
    guarantee rests on.  Copies of the last row keep a sorted chunk's
    trimmed width unchanged.
    """
    return np.minimum(np.arange(n_rows + -n_rows % ROW_BLOCK), n_rows - 1)


@dataclass(frozen=True)
class InferenceStats:
    """Observability counters for one (or an accumulation of) call(s)."""

    n_rows: int = 0
    n_unique: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    n_evaluated: int = 0

    @property
    def unique_ratio(self) -> float:
        """Unique cells per row (1.0 means no duplicate savings)."""
        return self.n_unique / self.n_rows if self.n_rows else 1.0

    @property
    def hit_rate(self) -> float:
        """Cache hits per representative lookup (0.0 without a cache)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def merged(self, other: "InferenceStats") -> "InferenceStats":
        """Counter-wise sum (for accumulating totals across calls)."""
        return InferenceStats(
            n_rows=self.n_rows + other.n_rows,
            n_unique=self.n_unique + other.n_unique,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            n_evaluated=self.n_evaluated + other.n_evaluated,
        )

    def as_dict(self) -> dict[str, float]:
        """Flat record for run results and benchmark JSON."""
        return {
            "n_rows": self.n_rows,
            "n_unique": self.n_unique,
            "unique_ratio": round(self.unique_ratio, 4),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.hit_rate, 4),
            "n_evaluated": self.n_evaluated,
        }


def validate_rows(features: Mapping[str, np.ndarray]) -> int:
    """Check the feature dict is non-empty and row-aligned; return the
    row count."""
    if not features:
        raise ConfigurationError("at least one feature array is required")
    counts = {name: int(arr.shape[0]) for name, arr in features.items()}
    if len(set(counts.values())) > 1:
        raise ConfigurationError(
            f"feature arrays disagree on the number of rows: {counts}"
        )
    n = next(iter(counts.values()))
    if n == 0:
        raise ConfigurationError("feature set is empty")
    return n


def _row_key_bytes(features: Mapping[str, np.ndarray],
                   rows: np.ndarray) -> list[bytes]:
    """Cache-key bytes of each selected row, over *all* feature arrays.

    Uses the same byte layout as :func:`build_dedup_index` (features in
    sorted name order), so a key equals a key iff the model inputs are
    byte-identical.
    """
    parts = []
    k = rows.shape[0]
    for name in sorted(features):
        arr = np.ascontiguousarray(np.take(features[name], rows, axis=0))
        parts.append(arr.reshape(k, -1).view(np.uint8).reshape(k, -1))
    keys = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    keys = np.ascontiguousarray(keys)
    return [keys[i].tobytes() for i in range(k)]


class InferenceEngine:
    """Dedup + cache prediction engine around one model.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.module.Module` mapping a feature dict to
        ``(batch, n_classes)`` probabilities.  Its ``weights_version``
        drives cache invalidation.
    cache:
        Optional cross-call :class:`PredictionCache`.  ``None`` disables
        memoisation across calls (deduplication within a call still
        applies).
    batch_size:
        Representative chunk size for the network forward.
    fingerprint:
        Identity prefixed to every cache key (default: derived from the
        model's class and parameter topology via
        :func:`model_fingerprint`).  Pass an explicit value to segregate
        entries further, e.g. per ensemble member configuration.
    """

    def __init__(self, model, cache: PredictionCache | None = None,
                 batch_size: int = 256,
                 fingerprint: str | None = None):
        self.model = model
        self.cache = cache
        self.batch_size = batch_size
        self.fingerprint = (fingerprint if fingerprint is not None
                            else model_fingerprint(model))
        self._key_tag = self.fingerprint.encode() + b"|"
        self.last_stats = InferenceStats()
        self.total_stats = InferenceStats()
        self._gather_buffers: dict[str, np.ndarray] = {}
        self._rep_probs: np.ndarray | None = None

    # -- scratch management -------------------------------------------------

    def _gather(self, name: str, arr: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
        """Gather ``arr[rows]`` into a reusable per-feature chunk buffer."""
        full = (self.batch_size + -self.batch_size % ROW_BLOCK,) + arr.shape[1:]
        buf = self._gather_buffers.get(name)
        if buf is None or buf.shape != full or buf.dtype != arr.dtype:
            buf = np.empty(full, dtype=arr.dtype)
            self._gather_buffers[name] = buf
        view = buf[:rows.shape[0]]
        return np.take(arr, rows, axis=0, out=view)

    def _build_chunk(self, features: Mapping[str, np.ndarray],
                     rows: np.ndarray, row_lengths: np.ndarray | None,
                     start: int) -> tuple[dict[str, np.ndarray], int]:
        """One evaluation chunk plus its true row count.

        Gathers into the reusable buffers.  Sequence keys are trimmed to
        the chunk's maximum true length, and the chunk comes back
        duplicate-padded to whole row blocks (:func:`row_block_index`;
        hence the returned count: the caller slices the padding back
        off).
        """
        chunk_rows = rows[start:start + self.batch_size]
        n_rows = int(chunk_rows.shape[0])
        padded_rows = chunk_rows[row_block_index(n_rows)]
        chunk = {}
        for name, arr in features.items():
            part = self._gather(name, arr, padded_rows)
            if row_lengths is not None and name in SEQUENCE_KEYS \
                    and part.ndim >= 2:
                width = max(int(
                    row_lengths[start:start + self.batch_size].max()), 1)
                if width < part.shape[1]:
                    part = part[:, :width]
            chunk[name] = part
        return chunk, n_rows

    def _representative_buffer(self, n_unique: int,
                               n_classes: int, dtype) -> np.ndarray:
        """The reusable un-permutation buffer ``(n_unique, n_classes)``.

        Reused verbatim when the shape matches the previous call (the
        steady-state serving case); only reallocated on shape changes.
        """
        buf = self._rep_probs
        if buf is None or buf.shape != (n_unique, n_classes) \
                or buf.dtype != dtype:
            buf = np.empty((n_unique, n_classes), dtype=dtype)
            self._rep_probs = buf
        return buf

    # -- prediction ---------------------------------------------------------

    @telemetry.spanned("inference.predict")
    def predict_proba(self, features: Mapping[str, np.ndarray],
                      lengths: np.ndarray | None = None,
                      dedup: DedupIndex | None = None) -> np.ndarray:
        """Probabilities for every row, predicting once per unique cell.

        Parameters
        ----------
        features:
            Encoded feature dict (all arrays row-aligned).
        lengths:
            Optional per-row true sequence lengths; enables
            sorted-by-length trimmed chunking over the representatives.
        dedup:
            Precomputed unique-cell index (e.g.
            :attr:`~repro.dataprep.encoding.EncodedCells.dedup`); built
            on the fly when omitted.
        """
        n = validate_rows(features)
        if dedup is None:
            dedup = build_dedup_index(features)
        elif dedup.n_rows != n:
            raise ConfigurationError(
                f"dedup index covers {dedup.n_rows} rows, features have {n}"
            )
        reps = dedup.representatives
        n_unique = dedup.n_unique

        hits = 0
        cached_rows: list[tuple[int, np.ndarray]] = []
        miss_positions: np.ndarray
        if self.cache is not None:
            self.cache.sync_version(getattr(self.model, "weights_version", 0))
            # Keys carry the engine's model fingerprint, so two detector
            # families sharing a tenant cache can never collide on the
            # same feature bytes.
            keys = [self._key_tag + key
                    for key in _row_key_bytes(features, reps)]
            misses = []
            for position, key in enumerate(keys):
                entry = self.cache.get(key)
                if entry is None:
                    misses.append(position)
                else:
                    cached_rows.append((position, entry))
            hits = n_unique - len(misses)
            miss_positions = np.asarray(misses, dtype=np.int64)
        else:
            keys = None
            miss_positions = np.arange(n_unique, dtype=np.int64)

        rep_probs: np.ndarray | None = None
        if miss_positions.shape[0]:
            # Evaluate unseen representatives cheapest-first: reuse the
            # dedup index's memoised length order (no per-call argsort)
            # and keep each chunk's padded tail trimmed.
            if lengths is not None:
                order = dedup.length_order(lengths)
                todo = order[np.isin(order, miss_positions,
                                     assume_unique=True)] \
                    if hits else order
            else:
                todo = miss_positions
            rows = reps[todo]
            row_lengths = (None if lengths is None
                           else np.asarray(lengths).reshape(-1)[rows])
            tele = telemetry.enabled()
            forward_hist = (telemetry.get_registry().histogram(
                "inference.forward_seconds") if tele else None)
            # Prefix-shared value states, one window of representatives
            # at a time (the window's first chunk times its value pass).
            # Within one chunk, planning costs more than sharing saves.
            shared = (rows.shape[0] > self.batch_size
                      and getattr(self.model, "shares_values", False))
            window = max(VALUE_WINDOW // self.batch_size, 1) * self.batch_size
            with no_grad():
                for start in range(0, rows.shape[0], self.batch_size):
                    chunk_started = time.perf_counter() if tele else 0.0
                    chunk, k = self._build_chunk(features, rows,
                                                 row_lengths, start)
                    extra = {}
                    if shared:
                        if start % window == 0:
                            value_states, value_of = \
                                self.model.distinct_value_states(np.take(
                                    features["values"],
                                    rows[start:start + window], axis=0))
                        local = start % window + row_block_index(k)
                        extra["value_states"] = value_states[value_of[local]]
                    probs = self.model(chunk, **extra).numpy()[:k]
                    if forward_hist is not None:
                        forward_hist.observe(
                            time.perf_counter() - chunk_started)
                    if rep_probs is None:
                        rep_probs = self._representative_buffer(
                            n_unique, probs.shape[1], probs.dtype)
                    rep_probs[todo[start:start + self.batch_size]] = probs
            if self.cache is not None and keys is not None:
                for position in miss_positions:
                    self.cache.put(keys[position], rep_probs[position])
        if rep_probs is None:
            # Every representative was served from the cache.
            first = cached_rows[0][1]
            rep_probs = self._representative_buffer(
                n_unique, first.shape[0], first.dtype)
        for position, entry in cached_rows:
            rep_probs[position] = entry

        self.last_stats = InferenceStats(
            n_rows=n,
            n_unique=n_unique,
            cache_hits=hits,
            cache_misses=int(miss_positions.shape[0]) if self.cache is not None
            else 0,
            n_evaluated=int(miss_positions.shape[0]),
        )
        self.total_stats = self.total_stats.merged(self.last_stats)
        if telemetry.enabled():
            registry = telemetry.get_registry()
            stats = self.last_stats
            registry.counter("inference.calls").inc()
            registry.counter("inference.rows").inc(stats.n_rows)
            registry.counter("inference.unique").inc(stats.n_unique)
            registry.counter("inference.cache_hits").inc(stats.cache_hits)
            registry.counter("inference.cache_misses").inc(stats.cache_misses)
            registry.counter("inference.evaluated").inc(stats.n_evaluated)
            registry.gauge("inference.unique_ratio").set(stats.unique_ratio)
            registry.emit({"type": "inference", **stats.as_dict()})
        return dedup.scatter(rep_probs)
