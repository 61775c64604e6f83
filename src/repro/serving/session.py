"""Long-lived table sessions with incremental re-scoring.

A :class:`TableSession` holds one loaded table's cells and their
current probabilities.  The initial ``load_table`` pays one full
scoring pass (micro-batched, dedup-memoized); afterwards an ``update``
of cell *(row, column)* re-scores **only the edited cell** -- the
paper's encoders condition a cell's features on its own value,
attribute and length alone -- and serves every other cell from the
scores already held, a changed-cell fast path that the warm
:class:`~repro.inference.PredictionCache` makes nearly free when the
new value was seen before.  The <5% re-scoring bound gated by
``BENCH_serve.json`` is asserted against the ``inference.*`` telemetry
counters, not the session's own bookkeeping.

Correctness: unchanged cells and the served model are unchanged, so
their held scores are byte-identical to what a full re-score would
produce, and the engine's batch-composition independence makes the
re-scored cell byte-identical too.  Every pass hands raw cells to the
batcher, which encodes them with the model it scores them with.  If
the served model was hot-swapped since the last pass the held scores
are stale as a whole; :meth:`update` detects the version change and
re-scores the whole table, keeping the "session scores == one-shot
scores under the served model" invariant at every version.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import telemetry
from repro.dataprep.encoding import encode_values, table_cells
from repro.errors import ConfigurationError
from repro.table import Table


def _encode(detector, values: list[str], attributes: list[str]):
    """Features and true lengths of cells: the one cell encoder, which
    the batcher calls for every micro-batch."""
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

    # -- scoring ------------------------------------------------------------

    def flagged(self) -> list[tuple[int, str, str]]:
        """``(row, attribute, value)`` of every cell currently flagged."""
        with self._lock:
            predictions = self.probabilities.argmax(axis=1)
            return [(i % self.n_table_rows, self._attrs[i], self.values[i])
                    for i in np.flatnonzero(predictions == 1)]

    def _full_rescore(self) -> None:
        """Score every cell under the served model (lock held)."""
        result = self.batcher.predict(self.values, self._attrs)
        self.probabilities = np.array(result.probabilities, copy=True)
        self.scored_version = result.weights_version

    def update(self, row: int, column: str, value: str | None) -> dict:
        """Apply one cell edit and re-score only that cell.

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
            full = self.model.version != self.scored_version
            n_rescored = 0
            if not full:
                result = self.batcher.predict([value], [column])
                self.probabilities[index] = result.probabilities[0]
                n_rescored = 1
                # A hot swap landed between the version check and the
                # batch execution: the untouched rows are stale under
                # the new model, so pay the full pass after all.
                full = result.weights_version != self.scored_version
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
