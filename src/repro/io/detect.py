"""End-to-end detection on real files, without labels.

``repro detect <path>`` glues the ingestion layer to the detector: each
ingested table is profiled (:mod:`repro.io.analyze`), the complement of
the per-column conformance mask becomes a *weak* annotator, and
:meth:`~repro.models.detector.ErrorDetector.fit_with_labels` trains the
BiRNN against that annotator -- the production protocol of the paper
with the analyzer standing in for the human.  The fitted network then
scores every cell, so the output ranks suspects by probability instead
of echoing the analyzer verdicts back (the network generalises the
pattern evidence across columns and contexts).

With a pre-trained model (``--model``), training is skipped and the
saved detector scores all columns it knows.

The tables of a folder share nothing, so :func:`detect_path` scores
them in forked worker processes (:func:`repro.forkpool.fork_map`), one
worker per CPU the process may use and at most one per table, the
tables with the most characters first.  Workers inherit the ingested
tables and the detector; each sends back only its table's cell arrays.
Every output is byte for byte what scoring the tables one after another
gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro import forkpool, telemetry
# Not called here any more (the split's encoding is scored); the
# end-to-end benchmark's tracer still wraps this name as an encode layer,
# so it stays importable until that target is dropped.
from repro.dataprep import encode_cells  # noqa: F401
from repro.dataprep.pipeline import first_occurrence_ids
from repro.errors import DataError
from repro.inference import InferenceEngine
from repro.io.analyze import ColumnProfile, conforming_mask
from repro.io.ingest import IngestReport, ingest_path
from repro.io.readers import IngestedTable
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.table import Table


@dataclass(frozen=True)
class DetectOutcome:
    """Scores for one ingested table, as parallel per-cell arrays.

    Cell ``k`` is row ``rows[k]`` of column ``attributes[columns[k]]``.
    Every scored cell appears once, in its producer's order: tuple by
    tuple for a table trained on weak labels, column by column for
    ``--model`` scores and analyzer-only verdicts.  ``flags`` marks the
    cells the network (or, untrained, the analyzer) flags.
    """

    table: IngestedTable
    profiles: dict[str, ColumnProfile]
    attributes: tuple[str, ...]
    rows: np.ndarray
    columns: np.ndarray
    scores: np.ndarray
    flags: np.ndarray
    conforms: np.ndarray

    @property
    def flagged(self) -> np.ndarray:
        """Positions of the flagged cells, most suspicious first (ties
        keep cell order)."""
        cells = np.flatnonzero(self.flags)
        return cells[np.argsort(-self.scores[cells], kind="stable")]


def weak_label_fn(profiles: dict[str, ColumnProfile],
                  attributes: list[str]):
    """Build the analyzer-as-annotator callback for ``fit_with_labels``.

    The returned callable labels a proposed tuple's cell 1 (erroneous)
    exactly when the cell does not conform to its column's dominant
    pattern.  It only looks at the proposed values, so it is pure and
    deterministic.
    """

    def label(_tuple_id: int, row: dict[str, str]) -> list[int]:
        out = []
        for attribute in attributes:
            profile = profiles[attribute]
            value = row.get(attribute, "")
            out.append(0 if conforming_mask(profile, [value])[0] else 1)
        return out

    return label


def _outcome(item: IngestedTable, profiles: dict[str, ColumnProfile],
             attributes: list[str], tuple_major: bool,
             probabilities: np.ndarray | None = None) -> tuple:
    """Lay out one table's cells and score them.

    Returns the :class:`DetectOutcome` fields after ``table`` and
    ``profiles``, which the caller already holds.  Conformance is
    decided once per distinct value of each column.  Without
    ``probabilities`` the analyzer's verdict is the score: 1.0 and
    flagged for a non-conforming cell, 0.0 otherwise.
    """
    n_rows, k = item.table.n_rows, len(attributes)
    if tuple_major:
        rows = np.repeat(np.arange(n_rows), k)
        columns = np.tile(np.arange(k), n_rows)
    else:
        rows = np.tile(np.arange(n_rows), k)
        columns = np.repeat(np.arange(k), n_rows)
    conforming = np.zeros((k, n_rows), dtype=bool)
    for j, name in enumerate(attributes):
        codes, distinct = first_occurrence_ids(item.table.column(name).values)
        conforming[j] = np.array(conforming_mask(profiles[name], distinct),
                                 dtype=bool)[codes]
    conforms = conforming[columns, rows]
    if probabilities is None:
        scores, flags = np.where(conforms, 0.0, 1.0), ~conforms
    else:
        scores = probabilities[:, 1]
        flags = probabilities[:, 1] >= probabilities[:, 0]
    return tuple(attributes), rows, columns, scores, flags, conforms


def _score_with_weak_labels(item: IngestedTable,
                            profiles: dict[str, ColumnProfile],
                            architecture: str, n_label_tuples: int,
                            epochs: int, cell_type: str,
                            seed: int) -> tuple:
    table = item.table
    detector = ErrorDetector(
        architecture=architecture,
        # At least one tuple must stay unlabeled: the split needs a
        # non-empty test side.
        n_label_tuples=min(n_label_tuples, table.n_rows - 1),
        model_config=ModelConfig(cell_type=cell_type),
        training_config=TrainingConfig(epochs=epochs),
        seed=seed,
    )
    # fit_with_labels asks for one label per prepared attribute, in the
    # table's column order (id_ excluded by preparation).
    attributes = [name for name in table.column_names if name != "id_"]
    detector.fit_with_labels(table, weak_label_fn(profiles, attributes))

    # The prepared cells are the table's, tuple by tuple; the split
    # encoded them all.  The fitted model scores them once, so the
    # detector's cross-call prediction cache could never hit: they go
    # through the dedup engine alone.
    encoded = detector.split.cells
    detector.model.eval()
    probabilities = InferenceEngine(detector.model).predict_proba(
        encoded.features, lengths=encoded.lengths, dedup=encoded.dedup)
    return _outcome(item, profiles, attributes, True, probabilities)


def _score_with_model(item: IngestedTable,
                      profiles: dict[str, ColumnProfile],
                      detector: ErrorDetector) -> tuple:
    columns, probabilities = detector.score_columns(item.table)
    return _outcome(item, profiles, columns, False, probabilities)


def _score_table(item: IngestedTable, report: IngestReport,
                 detector: ErrorDetector | None, architecture: str,
                 n_label_tuples: int, epochs: int, cell_type: str,
                 seed: int) -> tuple:
    """One table's :func:`_outcome` fields, in a pool worker or inline."""
    profiles = report.profiles[item.name]
    with telemetry.span("detect.table", table=item.name):
        if detector is not None:
            return _score_with_model(item, profiles, detector)
        if item.table.n_rows >= 2:
            try:
                return _score_with_weak_labels(
                    item, profiles, architecture=architecture,
                    n_label_tuples=n_label_tuples, epochs=epochs,
                    cell_type=cell_type, seed=seed)
            except DataError:
                # Tables preparation or the split rejects (e.g. one with
                # a column named id_) still get analyzer verdicts.
                pass
        # Tables the BiRNN cannot train on get analyzer verdicts.
        return _outcome(item, profiles, item.table.column_names, False)


def detect_path(path: str | Path, *, detector: ErrorDetector | None = None,
                architecture: str = "etsb", n_label_tuples: int = 20,
                epochs: int = 30, cell_type: str = "rnn",
                seed: int = 0) -> tuple[IngestReport, list[DetectOutcome]]:
    """Ingest ``path`` and score every recovered table (module docstring).

    Returns the ingestion report (skips, stats, profiles) alongside one
    :class:`DetectOutcome` per table, in the report's table order.
    Tables too small to train on (fewer than 2 rows) are scored by
    analyzer conformance alone.
    """
    report = ingest_path(path)
    tables = report.tables
    score = partial(_score_table, report=report, detector=detector,
                    architecture=architecture,
                    n_label_tuples=n_label_tuples, epochs=epochs,
                    cell_type=cell_type, seed=seed)
    # A table's characters predict its cost better than its cell count.
    chars = [sum(sum(map(len, filter(None, item.table.column(name).values)))
                 for name in item.table.column_names) for item in tables]
    costliest_first = sorted(range(len(tables)), key=lambda i: -chars[i])
    cells = forkpool.fork_map(score, tables, forkpool.cpu_count(),
                              order=costliest_first)
    return report, [DetectOutcome(item, report.profiles[item.name], *fields)
                    for item, fields in zip(tables, cells)]


def scores_table(outcomes: list[DetectOutcome],
                 flagged_only: bool = True) -> Table:
    """Flatten outcomes into a result :class:`Table` for CSV export.

    Only the emitted cells (the flagged ones by default) are gathered
    and formatted.
    """
    out: dict[str, list] = {name: [] for name in
                            ("table", "row", "attribute", "value", "score",
                             "conforms")}
    for outcome in outcomes:
        cells = (outcome.flagged if flagged_only
                 else np.arange(outcome.rows.shape[0]))
        rows = outcome.rows[cells].tolist()
        columns = outcome.columns[cells].tolist()
        values = [outcome.table.table.column(name).values
                  for name in outcome.attributes]
        out["table"] += [outcome.table.name] * len(rows)
        out["row"] += rows
        out["attribute"] += [outcome.attributes[j] for j in columns]
        out["value"] += ["" if values[j][i] is None else str(values[j][i])
                         for i, j in zip(rows, columns)]
        out["score"] += [f"{score:.4f}"
                         for score in outcome.scores[cells].tolist()]
        out["conforms"] += outcome.conforms[cells].astype(int).tolist()
    return Table(out)
