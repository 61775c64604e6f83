"""Long-lived table sessions with incremental re-scoring.

A :class:`TableSession` holds one loaded table's encoded feature rows
and their current probabilities.  The initial ``load_table`` pays one
full scoring pass (micro-batched, dedup-memoized); afterwards an
``update`` of cell *(row, column)* recomputes **only the feature rows
whose encoder inputs include the edited cell** and serves every other
row from the scores already held -- the changed-cell fast path that the
warm :class:`~repro.inference.PredictionCache` makes nearly free when
the new value was seen before.

With the paper's encoders a cell's feature row depends only on the
cell's own value, attribute and length, so
:meth:`TableSession.affected_feature_rows` returns exactly one row; an
encoder with tuple- or column-context windows would widen that set, and
this method is the single place such a context map plugs in.  The <5%
re-scoring bound gated by ``BENCH_serve.json`` is asserted against the
``inference.*`` telemetry counters, not this method's return value, so
a future context-window encoder cannot silently break the contract.

Correctness: unchanged rows' inputs and the weights are unchanged, so
their held scores are byte-identical to what a full re-score would
produce, and the engine's batch-composition independence makes the
re-scored rows byte-identical too.  If the served model was hot-
swapped since the last scoring pass the held scores are stale as a
whole; :meth:`update` detects the version change and transparently
falls back to a full re-score, keeping the "session scores == one-shot
scores under current weights" invariant at every version.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import telemetry
from repro.dataprep.encoding import encode_values, table_cells
from repro.errors import ConfigurationError
from repro.table import Table


def _encode(detector, values: list[str], attributes: list[str]):
    """Features and true lengths of cells: the one cell encoder."""
    return encode_values(detector.prepared, values, attributes)


class TableSession:
    """One scored table held resident for cheap cell updates.

    Parameters
    ----------
    name:
        Session key (daemon-level namespace).
    model:
        The daemon's :class:`~repro.serving.model.ServedModel`.
    table:
        The dirty table to score.
    batcher:
        The daemon's :class:`~repro.serving.batcher.MicroBatcher`; all
        scoring (initial and incremental) funnels through it.
    """

    def __init__(self, name: str, model, table: Table, batcher):
        self.name = name
        self.model = model
        self.batcher = batcher
        known = model.detector.prepared.attributes
        self.columns, self.values, self._attrs = table_cells(table, known)
        self.skipped = [c for c in table.column_names if c not in self.columns]
        if not self.columns:
            raise ConfigurationError(
                "no column of this table matches the model's attributes; "
                f"model knows {sorted(known)}")
        self.n_table_rows = table.n_rows
        self._col_pos = {c: j for j, c in enumerate(self.columns)}
        self._lock = threading.RLock()
        self._full_rescore()

    # -- geometry -----------------------------------------------------------

    @property
    def n_feature_rows(self) -> int:
        """Total feature rows held (``n_table_rows * len(columns)``)."""
        return len(self.values)

    def feature_row(self, row: int, column: str) -> int:
        """The feature-row index of table cell ``(row, column)``."""
        if column not in self._col_pos:
            raise ConfigurationError(
                f"column {column!r} is not served by this session "
                f"(columns: {self.columns})")
        if not 0 <= row < self.n_table_rows:
            raise ConfigurationError(
                f"row {row} out of range [0, {self.n_table_rows})")
        return self._col_pos[column] * self.n_table_rows + row

    def affected_feature_rows(self, row: int, column: str) -> np.ndarray:
        """Feature rows whose encoder inputs include cell ``(row, column)``.

        The per-cell encoders condition only on the cell itself, so the
        context window of an edit is exactly its own feature row.  A
        context-aware encoder (tuple neighbours, column statistics)
        would override this to return the full window.
        """
        return np.asarray([self.feature_row(row, column)], dtype=np.int64)

    # -- scoring ------------------------------------------------------------

    def predictions(self) -> np.ndarray:
        """Current binary predictions (argmax of the held probabilities)."""
        with self._lock:
            return self.probabilities.argmax(axis=1).astype(np.int64)

    def flagged(self) -> list[tuple[int, str, str]]:
        """``(row, attribute, value)`` of every cell currently flagged."""
        with self._lock:
            predictions = self.probabilities.argmax(axis=1)
            return [(i % self.n_table_rows, self._attrs[i], self.values[i])
                    for i in np.flatnonzero(predictions == 1)]

    def _full_rescore(self) -> None:
        """Re-encode and re-score the whole table (lock held).

        Rebuilds the feature arrays wholesale from the current detector
        rather than writing into the held ones: a swap may have
        changed the encoder's ``max_length`` or attribute set, so the
        old arrays' shapes mean nothing under the new encoding.
        """
        detector = self.model.detector
        known = set(detector.prepared.attributes)
        missing = [c for c in self.columns if c not in known]
        if missing:
            raise ConfigurationError(
                f"the model now served does not know column(s) {missing} "
                f"held by session {self.name!r}; reload the session")
        self.features, self.lengths = _encode(detector, self.values,
                                              self._attrs)
        result = self.batcher.predict(self.features, self.lengths)
        self.probabilities = np.array(result.probabilities, copy=True)
        self.scored_version = result.weights_version

    def _rescore(self, rows: np.ndarray) -> bool:
        """Re-encode and re-score ``rows`` in place (lock held).

        Returns ``False`` without touching any state when the current
        detector's encoding no longer matches the held arrays (a swap
        changed the row width under us); the caller must fall back to
        :meth:`_full_rescore`.
        """
        detector = self.model.detector
        features, lengths = _encode(detector,
                                    [self.values[i] for i in rows],
                                    [self._attrs[i] for i in rows])
        if (features.keys() != self.features.keys()
                or any(features[name].shape[1:]
                       != self.features[name].shape[1:]
                       for name in features)):
            return False
        for name, part in features.items():
            self.features[name][rows] = part
        self.lengths[rows] = lengths
        result = self.batcher.predict(features, lengths)
        self.probabilities[rows] = result.probabilities
        self.scored_version = result.weights_version
        return True

    def update(self, row: int, column: str, value: str | None) -> dict:
        """Apply one cell edit and re-score only its context window.

        Returns a record with the re-scored row count (the incremental
        contract: tiny next to :attr:`n_feature_rows`), the cell's new
        flag and probabilities, and whether a model swap forced a full
        re-score instead.
        """
        value = "" if value is None else str(value)
        with self._lock:
            index = self.feature_row(row, column)
            was_flagged = bool(self.probabilities[index].argmax() == 1)
            self.values[index] = value
            expected = self.scored_version
            full = self.model.version != expected
            n_rescored = 0
            if not full:
                rows = self.affected_feature_rows(row, column)
                if self._rescore(rows):
                    n_rescored = int(rows.shape[0])
                    if self.scored_version != expected:
                        # A hot swap landed between the version check
                        # and the batch execution: the untouched rows
                        # are stale under the new weights, so pay the
                        # full pass after all.
                        full = True
                else:
                    # A swap changed the encoding width between the
                    # version check and the re-encode.
                    full = True
            if full:
                self._full_rescore()
                n_rescored += self.n_feature_rows
            now_flagged = bool(self.probabilities[index].argmax() == 1)
            record = {
                "row": int(row),
                "column": column,
                "flagged": now_flagged,
                "was_flagged": was_flagged,
                "probabilities": self.probabilities[index].tolist(),
                "n_rescored": n_rescored,
                "n_feature_rows": self.n_feature_rows,
                "full_rescore": full,
                "weights_version": self.scored_version,
            }
        if telemetry.enabled():
            registry = telemetry.get_registry()
            registry.counter("serve.updates").inc()
            registry.counter("serve.rescored_rows").inc(record["n_rescored"])
            if full:
                registry.counter("serve.full_rescores").inc()
        return record

    def stats(self) -> dict:
        with self._lock:
            return {
                "n_table_rows": self.n_table_rows,
                "columns": list(self.columns),
                "n_feature_rows": self.n_feature_rows,
                "n_flagged": int((self.probabilities.argmax(axis=1) == 1).sum()),
                "weights_version": self.scored_version,
            }
