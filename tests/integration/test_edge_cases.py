"""Edge-case integration tests: degenerate inputs the pipeline must survive."""

import numpy as np
import pytest

from repro.dataprep import prepare, split_by_tuple_ids
from repro.datasets.base import DatasetPair
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.sampling import DiverSet
from repro.table import Table

TINY = ModelConfig(char_embed_dim=4, value_units=5, attr_embed_dim=3,
                   attr_units=3, length_dense_units=4, head_units=6)
FAST = TrainingConfig(epochs=3)


def make_detector(**overrides):
    defaults = dict(architecture="etsb", n_label_tuples=4,
                    model_config=TINY, training_config=FAST, seed=0)
    defaults.update(overrides)
    return ErrorDetector(**defaults)


class TestAllCleanData:
    def test_trains_on_single_class_labels(self):
        """No errors at all: the trainset is all-0 labels; the detector
        must train, predict 'correct' everywhere and report P=R=0 with
        perfect accuracy (no positives exist)."""
        table = Table({
            "a": [f"v{i}" for i in range(20)],
            "b": [f"w{i}" for i in range(20)],
        })
        detector = make_detector(training_config=TrainingConfig(epochs=40))
        detector.fit(DatasetPair("edge", table, table))
        result = detector.evaluate()
        assert result.report.accuracy > 0.5
        assert result.report.recall == 0.0  # no positives to recall


class TestAllErrorColumn:
    def test_fully_wrong_column(self):
        dirty = Table({
            "a": [f"v{i}" for i in range(20)],
            "b": ["XXX"] * 20,
        })
        clean = Table({
            "a": [f"v{i}" for i in range(20)],
            "b": [f"w{i}" for i in range(20)],
        })
        detector = make_detector(training_config=TrainingConfig(epochs=25))
        detector.fit(DatasetPair("edge", dirty, clean))
        result = detector.evaluate()
        # Every 'XXX' cell is an error and trivially learnable.
        assert result.report.recall > 0.8


class TestEmptyValues:
    def test_column_of_empty_strings(self):
        dirty = Table({
            "a": [""] * 12,
            "b": [f"x{i}" for i in range(12)],
        })
        detector = make_detector()
        detector.fit(DatasetPair("edge", dirty, dirty))
        assert detector.evaluate().predictions.shape[0] > 0

    def test_missing_cells_treated_as_empty(self):
        dirty = Table({"a": [None, "x", None, "y", "z", "w"]})
        clean = Table({"a": ["q", "x", "r", "y", "z", "w"]})
        prepared = prepare(dirty, clean)
        values = prepared.cell_texts(slice(None))
        assert values[0] == ""
        labels = prepared.labels.tolist()
        assert labels[0] == 1


class TestSingleAttribute:
    def test_one_column_table(self):
        dirty = Table({"only": [f"value {i}" for i in range(15)]})
        detector = make_detector()
        detector.fit(DatasetPair("edge", dirty, dirty))
        assert detector.split.train_size == 4  # 4 tuples x 1 attribute


class TestUnicodeContent:
    def test_non_ascii_characters(self):
        dirty = Table({
            "name": ["Zürich", "Genève", "København", "東京", "Zü®ich",
                     "Oslo", "Roma", "Wien"],
        })
        clean = Table({
            "name": ["Zürich", "Genève", "København", "東京", "Zürich",
                     "Oslo", "Roma", "Wien"],
        })
        detector = make_detector()
        detector.fit(DatasetPair("edge", dirty, clean))
        result = detector.evaluate()
        assert result.predictions.shape[0] == 4


class TestLongValues:
    def test_values_at_truncation_boundary(self):
        base = "x" * 127
        dirty = Table({"text": [base + c for c in "abcdefgh"]})
        detector = make_detector()
        detector.fit(DatasetPair("edge", dirty, dirty))
        assert detector.prepared.max_length == 128


class TestDiverSetDegenerate:
    def test_all_rows_identical(self):
        dirty = Table({"a": ["same"] * 10, "b": ["also"] * 10})
        prepared = prepare(dirty, dirty)
        ids = DiverSet().select(5, prepared, np.random.default_rng(0))
        assert len(set(ids)) == 5

    def test_more_unique_values_than_tuples(self):
        dirty = Table({f"c{j}": [f"{i}-{j}" for i in range(6)]
                       for j in range(10)})
        prepared = prepare(dirty, dirty)
        ids = DiverSet().select(3, prepared, np.random.default_rng(0))
        split = split_by_tuple_ids(prepared, ids)
        assert split.train_size == 30
