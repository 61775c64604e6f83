"""Integration tests: the full pipeline on every dataset, CSV round trips,
cross-model comparisons, and the paper's qualitative claims at small scale."""

import numpy as np
import pytest

from repro.dataprep import prepare, split_by_tuple_ids
from repro.datasets import DATASET_NAMES, load
from repro.datasets.base import DatasetPair
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.sampling import DiverSet
from repro.table import read_csv, write_csv

TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8)
FAST = TrainingConfig(epochs=4)


class TestPipelineOnEveryDataset:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_prepare_and_split(self, name):
        pair = load(name, n_rows=60, seed=8)
        prepared = prepare(pair.dirty, pair.clean)
        assert prepared.n_tuples == 60
        ids = DiverSet().select(10, prepared, np.random.default_rng(0))
        split = split_by_tuple_ids(prepared, ids)
        assert split.train_size == 10 * pair.n_attributes

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_label_rate_matches_error_rate(self, name):
        pair = load(name, n_rows=80, seed=8)
        prepared = prepare(pair.dirty, pair.clean)
        labels = prepared.labels.tolist()
        assert sum(labels) / len(labels) == pytest.approx(
            pair.measured_error_rate(), abs=1e-9)

    @pytest.mark.parametrize("name", ["beers", "rayyan"])
    def test_detector_trains_on_dataset(self, name):
        pair = load(name, n_rows=50, seed=8)
        detector = ErrorDetector(architecture="etsb", n_label_tuples=8,
                                 model_config=TINY, training_config=FAST)
        detector.fit(pair)
        result = detector.evaluate()
        assert result.predictions.shape[0] == detector.split.test_size


class TestCsvWorkflow:
    def test_full_flow_from_csv_files(self, tmp_path):
        """A user's realistic path: two CSVs in, detections out."""
        pair = load("hospital", n_rows=40, seed=9)
        write_csv(pair.dirty, tmp_path / "dirty.csv")
        write_csv(pair.clean, tmp_path / "clean.csv")

        dirty = read_csv(tmp_path / "dirty.csv")
        clean = read_csv(tmp_path / "clean.csv")
        detector = ErrorDetector(architecture="tsb", n_label_tuples=6,
                                 model_config=TINY, training_config=FAST)
        detector.fit(DatasetPair("csv", dirty, clean))
        assert detector.evaluate().predictions.shape[0] > 0


class TestModelComparison:
    def test_both_architectures_same_split(self):
        """Same seed => same sampled tuples for both models (Section 5.2)."""
        pair = load("beers", n_rows=50, seed=3)
        tsb = ErrorDetector(architecture="tsb", n_label_tuples=8,
                            model_config=TINY, training_config=FAST, seed=4)
        etsb = ErrorDetector(architecture="etsb", n_label_tuples=8,
                             model_config=TINY, training_config=FAST, seed=4)
        tsb.fit(pair)
        etsb.fit(pair)
        assert tsb.split.train_tuple_ids == etsb.split.train_tuple_ids

    def test_hospital_easy_flights_hard(self):
        """Section 5.5's qualitative ordering at reduced scale: the
        x-marked Hospital typos are precisely detectable by a character
        model, while Flights' cross-record time disagreements are not --
        hospital gets near-perfect cell accuracy and precision, flights
        clearly lower accuracy.  (The full F1 ordering needs paper-scale
        training and is exercised by the Table 3 benchmark.)"""
        config = ModelConfig(char_embed_dim=16, value_units=24,
                             attr_embed_dim=4, attr_units=4,
                             length_dense_units=16, head_units=16)
        training = TrainingConfig(epochs=40)
        reports = {}
        for name in ("hospital", "flights"):
            pair = load(name, n_rows=100, seed=5)
            detector = ErrorDetector(architecture="etsb", n_label_tuples=15,
                                     model_config=config,
                                     training_config=training, seed=2)
            detector.fit(pair)
            reports[name] = detector.evaluate().report
        assert reports["hospital"].accuracy > 0.95
        assert reports["hospital"].precision > 0.9
        assert reports["flights"].accuracy < reports["hospital"].accuracy
