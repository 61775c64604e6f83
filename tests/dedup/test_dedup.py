"""Tests for duplicate-record key discovery, groups and fusion."""

import numpy as np
import pytest

from repro.datasets import load
from repro.dedup import (
    DuplicateGroups,
    disagreement_mask,
    fuse_predictions,
    identify_record_key,
)
from repro.dedup.keys import score_record_key
from repro.errors import DataError
from repro.table import Table


@pytest.fixture
def flights_like() -> Table:
    """Three flights x two sources; one disagreeing departure time."""
    return Table({
        "src": ["a", "b", "a", "b", "a", "b"],
        "flight": ["UA-1", "UA-1", "DL-2", "DL-2", "AA-3", "AA-3"],
        "dep": ["9:00", "9:20", "8:30", "8:30", "7:15", "7:15"],
        "arr": ["11:00", "11:00", "10:30", "10:30", "9:45", "9:45"],
    })


class TestScoreRecordKey:
    def test_duplication_fraction(self, flights_like):
        candidate = score_record_key(flights_like, ("flight",),
                                     exclude=frozenset({"src"}))
        assert candidate.duplication == 1.0

    def test_agreement_reflects_disagreements(self, flights_like):
        candidate = score_record_key(flights_like, ("flight",),
                                     exclude=frozenset({"src"}))
        # dep disagrees in one of three groups: agreement < 1.
        assert 0.5 < candidate.agreement < 1.0

    def test_unique_key_scores_zero_duplication(self, flights_like):
        with_id = Table({**{name: flights_like.column(name).values
                            for name in flights_like.column_names},
                         "id": list(range(6))})
        candidate = score_record_key(with_id, ("id",))
        assert candidate.duplication == 0.0


class TestIdentifyRecordKey:
    def test_finds_flight_column(self, flights_like):
        best = identify_record_key(flights_like, exclude=("src",))
        assert best is not None
        assert best.columns == ("flight",)

    def test_on_real_flights_dataset(self):
        pair = load("flights", n_rows=120, seed=1)
        best = identify_record_key(pair.dirty, exclude=("tuple_id", "src"))
        assert best is not None
        assert best.columns == ("flight",)

    def test_no_key_on_unique_table(self):
        table = Table({"a": [str(i) for i in range(20)],
                       "b": [str(i * 2) for i in range(20)]})
        assert identify_record_key(table) is None

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            identify_record_key(Table({"a": []}))


class TestDuplicateGroups:
    def test_group_count(self, flights_like):
        groups = DuplicateGroups(flights_like, ("flight",))
        assert len(groups) == 3
        assert groups.n_duplicated_records() == 6

    def test_majority_values_skip_empties(self):
        table = Table({
            "k": ["x", "x", "x"],
            "v": ["", "9:00", "9:00"],
        })
        majorities = DuplicateGroups(table, ("k",)).majority_values()
        assert majorities[("x",)]["v"] == "9:00"

    def test_all_empty_group_has_none_majority(self):
        table = Table({"k": ["x", "x"], "v": ["", ""]})
        majorities = DuplicateGroups(table, ("k",)).majority_values()
        assert majorities[("x",)]["v"] is None

    def test_validation(self, flights_like):
        with pytest.raises(DataError):
            DuplicateGroups(flights_like, ("ghost",))
        with pytest.raises(DataError):
            DuplicateGroups(flights_like, ())


class TestDisagreementMask:
    def test_flags_only_the_minority_cell(self, flights_like):
        mask = disagreement_mask(flights_like, ("flight",))
        dep = flights_like.column_names.index("dep")
        # With a 1-1 tie the dict-max picks the first value as majority;
        # exactly one of the two UA-1 dep cells is flagged.
        assert mask[:, dep].sum() == 1
        assert mask[0, dep] or mask[1, dep]

    def test_agreeing_cells_unflagged(self, flights_like):
        mask = disagreement_mask(flights_like, ("flight",))
        arr = flights_like.column_names.index("arr")
        assert not mask[:, arr].any()

    def test_key_columns_never_flagged(self, flights_like):
        mask = disagreement_mask(flights_like, ("flight",))
        flight = flights_like.column_names.index("flight")
        assert not mask[:, flight].any()

    def test_catches_real_flights_errors(self):
        pair = load("flights", n_rows=120, seed=1)
        mask = disagreement_mask(pair.dirty, ("flight",))
        truth = np.array(pair.error_mask())
        from repro.metrics import recall
        # Cross-record disagreement recovers most injected time errors.
        assert recall(truth.astype(int).reshape(-1),
                      mask.astype(int).reshape(-1)) > 0.5


class TestFusePredictions:
    def test_union(self):
        a = np.array([[True, False], [False, False]])
        b = np.array([[False, False], [True, False]])
        assert fuse_predictions(a, b).sum() == 2

    def test_intersection(self):
        a = np.array([[True, True]])
        b = np.array([[True, False]])
        assert fuse_predictions(a, b, mode="intersection").sum() == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            fuse_predictions(np.zeros((2, 2), bool), np.zeros((2, 3), bool))

    def test_unknown_mode_rejected(self):
        with pytest.raises(DataError):
            fuse_predictions(np.zeros((1, 1), bool),
                             np.zeros((1, 1), bool), mode="xor")


class TestFusedDetector:
    def test_fusion_improves_flights_recall(self):
        """The §5.7 claim as an executable statement: fusing the BiRNN
        with duplicate-record disagreements raises recall on Flights."""
        from repro.dedup import FusedDetector
        from repro.metrics import recall
        from repro.models import ErrorDetector, ModelConfig, TrainingConfig

        pair = load("flights", n_rows=120, seed=1)
        base = ErrorDetector(
            architecture="etsb", n_label_tuples=12,
            model_config=ModelConfig(char_embed_dim=8, value_units=10,
                                     attr_embed_dim=3, attr_units=3,
                                     length_dense_units=6, head_units=8),
            training_config=TrainingConfig(epochs=15), seed=0)
        fused = FusedDetector(base, exclude=("tuple_id", "src"))
        fused.fit(pair)

        truth = np.array(pair.error_mask()).astype(int)
        base_mask = fused.predict_mask(pair.dirty)  # fused (union)
        assert fused.discovered_key == ("flight",)

        model_only = np.zeros(pair.dirty.shape, dtype=bool)
        positions = {a: j for j, a in enumerate(pair.dirty.column_names)}
        for tid, attr in base.predict_table():
            model_only[tid, positions[attr]] = True

        fused_recall = recall(truth.reshape(-1),
                              base_mask.astype(int).reshape(-1))
        model_recall = recall(truth.reshape(-1),
                              model_only.astype(int).reshape(-1))
        assert fused_recall >= model_recall

    def test_degrades_gracefully_without_key(self):
        from repro.dedup import FusedDetector
        from repro.models import ErrorDetector, ModelConfig, TrainingConfig

        pair = load("rayyan", n_rows=50, seed=1)  # no duplicate records
        base = ErrorDetector(
            architecture="tsb", n_label_tuples=8,
            model_config=ModelConfig(char_embed_dim=6, value_units=6,
                                     attr_embed_dim=3, attr_units=3,
                                     length_dense_units=4, head_units=6),
            training_config=TrainingConfig(epochs=3), seed=0)
        fused = FusedDetector(base)
        fused.fit(pair)
        mask = fused.predict_mask(pair.dirty)
        assert mask.shape == pair.dirty.shape

    def test_unfitted_raises(self):
        from repro.dedup import FusedDetector
        from repro.errors import NotFittedError
        from repro.models import ErrorDetector

        fused = FusedDetector(ErrorDetector())
        with pytest.raises(NotFittedError):
            fused.predict_mask(Table({"a": ["1"]}))
