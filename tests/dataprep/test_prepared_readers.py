"""The readers of ``PreparedData`` outside the golden grid against a
row-wise reference.

``AugmentAdapter.fit``, ``RahaSet`` and ``ErrorDetector.fit_with_labels``
take a cell's tuple and attribute from its position in the prepared
cells.  The reference below reads the wide tables row by row instead:
each dirty cell left-stripped and cut at 128 characters, its label
whether the clean cell of the same position (under the clean column's
name) differs.  Each reader must see exactly those texts and labels, in
the order the long table's rows used to give them.
"""

import numpy as np
import pytest

from repro.baselines.augment import AugmentationDetector
from repro.baselines.raha import RahaDetector
from repro.dataprep import prepare
from repro.datasets import load
from repro.datasets.base import DatasetPair
from repro.detectors.adapters import AugmentAdapter
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.sampling import RahaSet
from repro.table import Table


def _text(value):
    return ("" if value is None else str(value).lstrip())[:128]


def reference_cells(dirty, clean):
    """``{(tuple, clean attribute): (dirty text, label)}``, row by row."""
    cells = {}
    for i in range(dirty.n_rows):
        for dirty_name, name in zip(dirty.column_names, clean.column_names):
            text = _text(dirty.column(dirty_name)[i])
            cells[(i, name)] = (text, int(text != _text(clean.column(name)[i])))
    return cells


@pytest.fixture(scope="module")
def pair():
    """hospital with whitespace-led and missing values, and a value that
    differs from its clean cell only past the 128-character cut."""
    base = load("hospital", n_rows=40, seed=3)
    names = base.clean.column_names
    dirty = {name: list(base.dirty.column(name).values) for name in names}
    clean = {name: list(base.clean.column(name).values) for name in names}
    for i in range(0, 40, 4):
        dirty[names[0]][i] = " \t " + str(dirty[names[0]][i])
    dirty[names[1]][5] = None
    dirty[names[1]][9] = "x" * 128 + "A"
    clean[names[1]][9] = "x" * 128 + "B"
    return DatasetPair("readers", Table(dirty), Table(clean))


def renamed(table):
    """``table`` with every column renamed: prepare aligns by position."""
    return Table({f"d_{name}": table.column(name).values
                  for name in table.column_names})


@pytest.mark.parametrize("rows", [None, [7, 2, 30, 2, 999, -1, 0]])
def test_augment_adapter_fits_row_wise_cells(monkeypatch, pair, rows):
    calls = []
    real_fit = AugmentationDetector.fit

    def recording_fit(self, texts, labels):
        calls.append((list(texts), list(labels)))
        return real_fit(self, texts, labels)

    monkeypatch.setattr(AugmentationDetector, "fit", recording_fit)
    adapter = AugmentAdapter(seed=1).fit(pair, labeled_rows=rows)
    cells = reference_cells(pair.dirty, pair.clean)
    kept = sorted({t for t in adapter.labeled_rows
                   if 0 <= t < pair.dirty.n_rows})
    assert calls == [([cells[(t, name)][0] for t in kept],
                      [cells[(t, name)][1] for t in kept])
                     for name in pair.clean.column_names]
    assert all(type(label) is int for _, labels in calls for label in labels)


def test_rahaset_clusters_the_row_wise_dirty_table(monkeypatch, pair):
    seen = []
    real_analyze = RahaDetector.analyze

    def recording_analyze(self, dirty, n_labels=20):
        seen.append(dirty)
        return real_analyze(self, dirty, n_labels=n_labels)

    monkeypatch.setattr(RahaDetector, "analyze", recording_analyze)
    dirty = renamed(pair.dirty)
    prepared = prepare(dirty, pair.clean)
    rows = RahaSet().select(6, prepared, np.random.default_rng(4))
    cells = reference_cells(dirty, pair.clean)
    n = pair.dirty.n_rows
    assert seen == [Table({name: [cells[(i, name)][0] for i in range(n)]
                           for name in pair.clean.column_names})]
    assert len(set(rows)) == 6 and set(rows) <= set(range(n))


def test_fit_with_labels_shows_and_stores_row_wise_cells(pair):
    names = pair.clean.column_names
    cells = reference_cells(pair.dirty, pair.clean)
    shown = []

    def label_fn(tid, row):
        shown.append((tid, row))
        return [cells[(tid, name)][1] for name in names]

    detector = ErrorDetector(
        n_label_tuples=5, seed=2, training_config=TrainingConfig(epochs=1),
        model_config=ModelConfig(char_embed_dim=4, value_units=4,
                                 num_layers=1, attr_embed_dim=2,
                                 attr_units=2, length_dense_units=4,
                                 head_units=4))
    detector.fit_with_labels(pair.dirty, label_fn)
    assert [row for _, row in shown] == [
        {name: cells[(tid, name)][0] for name in names} for tid, _ in shown]
    labelled = {tid for tid, _ in shown}
    want = [cells[(i, name)][1] if i in labelled else 0
            for i in range(pair.dirty.n_rows) for name in names]
    assert detector.prepared.labels.tolist() == want
    assert detector.split.cells.labels.tolist() == want
    train = detector.split.train
    assert train.tuple_ids.tolist() == [
        i for i in sorted(labelled) for _ in names]
    assert train.labels.tolist() == [
        cells[(i, name)][1] for i in sorted(labelled) for name in names]
