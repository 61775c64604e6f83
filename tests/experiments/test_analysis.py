"""Tests for the Section 5.5 error-analysis utilities and the
augmentation baseline runner."""

import numpy as np
import pytest

from repro.datasets import load
from repro.errors import ExperimentError
from repro.experiments import (
    attribute_breakdown,
    error_type_recall,
    false_negatives,
    hardest_attributes,
    render_breakdown,
    run_experiment,
)
from repro.models import ErrorDetector, ModelConfig, TrainingConfig

TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8)


@pytest.fixture(scope="module")
def fitted_pair():
    pair = load("beers", n_rows=60, seed=1)
    detector = ErrorDetector(architecture="etsb", n_label_tuples=10,
                             model_config=TINY,
                             training_config=TrainingConfig(epochs=5), seed=0)
    detector.fit(pair)
    return pair, detector, detector.evaluate()


class TestAttributeBreakdown:
    def test_one_entry_per_attribute(self, fitted_pair):
        pair, detector, result = fitted_pair
        breakdowns = attribute_breakdown(result, detector.split.test.labels)
        assert len(breakdowns) == pair.n_attributes

    def test_cells_sum_to_test_size(self, fitted_pair):
        pair, detector, result = fitted_pair
        breakdowns = attribute_breakdown(result, detector.split.test.labels)
        assert sum(b.n_cells for b in breakdowns) == detector.split.test_size

    def test_errors_sum_to_positive_labels(self, fitted_pair):
        pair, detector, result = fitted_pair
        breakdowns = attribute_breakdown(result, detector.split.test.labels)
        assert sum(b.n_errors for b in breakdowns) == \
            int(detector.split.test.labels.sum())

    def test_shape_mismatch_rejected(self, fitted_pair):
        _, __, result = fitted_pair
        with pytest.raises(ExperimentError):
            attribute_breakdown(result, np.zeros(3))

    def test_hardest_sorted_ascending(self, fitted_pair):
        pair, detector, result = fitted_pair
        breakdowns = attribute_breakdown(result, detector.split.test.labels)
        hardest = hardest_attributes(breakdowns)
        f1s = [b.report.f1 for b in hardest]
        assert f1s == sorted(f1s)
        assert all(b.n_errors >= 1 for b in hardest)

    def test_render(self, fitted_pair):
        pair, detector, result = fitted_pair
        breakdowns = attribute_breakdown(result, detector.split.test.labels)
        text = render_breakdown(breakdowns)
        assert "attribute" in text
        assert "ounces" in text


class TestErrorTypeRecall:
    def test_totals_match_test_ledger(self, fitted_pair):
        pair, detector, result = fitted_pair
        counts = error_type_recall(pair, result)
        train_ids = set(detector.split.train_tuple_ids)
        expected_total = sum(1 for e in pair.errors if e.row not in train_ids)
        assert sum(total for _, total in counts.values()) == expected_total

    def test_detected_bounded_by_total(self, fitted_pair):
        pair, _, result = fitted_pair
        for detected, total in error_type_recall(pair, result).values():
            assert 0 <= detected <= total

    def test_requires_ledger(self, fitted_pair):
        from repro.datasets.base import DatasetPair
        pair, _, result = fitted_pair
        no_ledger = DatasetPair(name="x", dirty=pair.dirty, clean=pair.clean)
        with pytest.raises(ExperimentError, match="ledger"):
            error_type_recall(no_ledger, result)


class TestFalseNegatives:
    def test_entries_are_real_misses(self, fitted_pair):
        pair, detector, result = fitted_pair
        misses = false_negatives(result, detector.split.test.labels, pair)
        for tuple_id, attribute, dirty, clean in misses:
            assert dirty.lstrip() != clean.lstrip()

    def test_limit_respected(self, fitted_pair):
        pair, detector, result = fitted_pair
        misses = false_negatives(result, detector.split.test.labels, pair,
                                 limit=2)
        assert len(misses) <= 2


class TestAugmentationBaselineRunner:
    def test_runs_and_scores(self):
        pair = load("beers", n_rows=80, seed=1)
        result = run_experiment(pair, "augment", n_runs=2, n_label_tuples=10)
        assert result.system == "Augment (ours)"
        assert len(result.runs) == 2
        assert 0.0 <= result.f1.mean <= 1.0

    def test_catches_formatting_errors(self):
        """Suffix-style FI errors are easy for the n-gram classifier."""
        pair = load("beers", n_rows=120, seed=1)
        result = run_experiment(pair, "augment", n_runs=1, n_label_tuples=20)
        assert result.f1.mean > 0.5

    def test_invalid_runs_rejected(self):
        pair = load("beers", n_rows=40, seed=1)
        with pytest.raises(ExperimentError):
            run_experiment(pair, "augment", n_runs=0)
