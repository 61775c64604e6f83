"""Tests for the end-to-end ErrorDetector API."""

import numpy as np
import pytest

from repro.dataprep import prepare
from repro.datasets import load
from repro.errors import ConfigurationError, NotFittedError
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.nn.training import predict_proba
from repro.sampling import RandomSet

TINY_MODEL = ModelConfig(char_embed_dim=6, value_units=8, num_layers=2,
                         attr_embed_dim=3, attr_units=3,
                         length_dense_units=6, head_units=8)
FAST_TRAINING = TrainingConfig(epochs=6)


def make_detector(**overrides) -> ErrorDetector:
    defaults = dict(architecture="etsb", n_label_tuples=8,
                    model_config=TINY_MODEL, training_config=FAST_TRAINING,
                    seed=0)
    defaults.update(overrides)
    return ErrorDetector(**defaults)


@pytest.fixture(scope="module")
def pair():
    return load("hospital", n_rows=60, seed=2)


@pytest.fixture(scope="module")
def fitted(pair):
    return make_detector().fit(pair)


class TestFit:
    def test_fit_populates_state(self, fitted):
        assert fitted.model is not None
        assert fitted.split is not None
        assert fitted.checkpoint is not None
        assert fitted.checkpoint.best_epoch is not None

    def test_train_test_sizes(self, fitted, pair):
        split = fitted.split
        assert split.train_size == 8 * pair.n_attributes
        assert split.test_size == (60 - 8) * pair.n_attributes

    def test_checkpoint_restored_best(self, fitted):
        history = fitted.trainer.history
        assert fitted.checkpoint.best_value == min(history.series("loss"))

    def test_reproducible_given_seed(self, pair):
        a = make_detector(seed=5).fit(pair).evaluate()
        b = make_detector(seed=5).fit(pair).evaluate()
        np.testing.assert_array_equal(a.predictions, b.predictions)

    def test_custom_sampler_used(self, pair):
        """Another sampler's rows are pinned: ``fit`` trains on them."""
        rows = RandomSet().select(8, prepare(pair.dirty, pair.clean),
                                  np.random.default_rng(0))
        detector = make_detector().fit(pair, labeled_rows=rows)
        assert detector.split.train_tuple_ids == tuple(rows)
        assert detector.labeled_rows == tuple(int(t) for t in rows)

    def test_invalid_architecture_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorDetector(architecture="gru")

    def test_architecture_picks_the_registered_family(self):
        from repro.detectors import get
        for name in ("tsb", "etsb", "attn"):
            detector = ErrorDetector(architecture=name)
            assert type(detector) is get(name)
            assert detector.name == detector.architecture == name
        assert type(ErrorDetector()) is get("etsb")
        with pytest.raises(ConfigurationError):
            get("tsb")(architecture="etsb")


class TestEvaluate:
    def test_report_fields(self, fitted):
        result = fitted.evaluate()
        assert 0.0 <= result.report.precision <= 1.0
        assert 0.0 <= result.report.recall <= 1.0
        assert 0.0 <= result.report.f1 <= 1.0

    def test_predictions_parallel_to_test_cells(self, fitted):
        result = fitted.evaluate()
        assert result.predictions.shape[0] == fitted.split.test_size
        assert len(result.attribute_names) == fitted.split.test_size

    def test_errors_listing(self, fitted):
        result = fitted.evaluate()
        for tid, attr in result.errors():
            assert attr in fitted.prepared.attributes
            assert tid not in fitted.split.train_tuple_ids

    def test_predict_table_covers_all_cells(self, fitted, pair):
        cells = fitted.predict_table()
        assert all(attr in fitted.prepared.attributes for _, attr in cells)
        # The prediction pass scored every cell, train and test tuples.
        assert fitted.inference_stats.n_rows == pair.dirty.n_rows * len(
            fitted.prepared.attributes)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            make_detector().evaluate()
        with pytest.raises(NotFittedError):
            make_detector().predict({"values": np.zeros((1, 4), dtype=int)})


class TestFitWithLabels:
    def test_interactive_labelling_flow(self, pair):
        """label_fn plays the human: labels from the ground truth."""
        mask = np.array(pair.error_mask())

        calls = []

        def label_fn(tuple_id, row):
            calls.append(tuple_id)
            assert set(row) == set(pair.dirty.column_names)
            return mask[tuple_id].astype(int).tolist()

        detector = make_detector()
        detector.fit_with_labels(pair.dirty, label_fn)
        assert len(calls) == 8
        assert detector.split.train_size == 8 * pair.n_attributes
        # Training labels must equal the user-provided ones.
        train = detector.split.train
        for i in range(train.n_cells):
            tid = int(train.tuple_ids[i])
            attr = train.attribute_names[i]
            col = pair.dirty.column_names.index(attr)
            assert train.labels[i] == int(mask[tid, col])

    def test_wrong_label_count_rejected(self, pair):
        detector = make_detector()
        with pytest.raises(ConfigurationError, match="labels"):
            detector.fit_with_labels(pair.dirty, lambda tid, row: [0])

    def test_non_binary_labels_rejected(self, pair):
        detector = make_detector()
        with pytest.raises(ConfigurationError, match="0 or 1"):
            detector.fit_with_labels(
                pair.dirty,
                lambda tid, row: [2] * pair.n_attributes)


class TestLearning:
    def test_learns_hospital_errors(self):
        """With real settings the model must beat a trivial baseline."""
        pair = load("hospital", n_rows=80, seed=7)
        detector = ErrorDetector(
            architecture="etsb", n_label_tuples=15,
            model_config=ModelConfig(char_embed_dim=16, value_units=24,
                                     attr_embed_dim=4, attr_units=4,
                                     length_dense_units=16, head_units=16),
            training_config=TrainingConfig(epochs=50), seed=1)
        detector.fit(pair)
        report = detector.evaluate().report
        assert report.f1 > 0.5


class TestDedupInference:
    def test_evaluate_reports_inference_stats(self, fitted):
        result = fitted.evaluate()
        stats = result.inference
        assert stats is not None
        assert stats.n_rows == fitted.split.test_size
        assert 0 < stats.n_unique <= stats.n_rows
        assert stats.unique_ratio == stats.n_unique / stats.n_rows

    def test_repeated_evaluate_is_served_from_cache(self, fitted):
        first = fitted.evaluate()
        second = fitted.evaluate()
        np.testing.assert_array_equal(first.predictions, second.predictions)
        assert second.inference.cache_hits == second.inference.n_unique
        assert second.inference.n_evaluated == 0

    def test_dedup_matches_naive_path(self, fitted):
        """evaluate()'s dedup-memoized predictions equal the naive
        chunked forward over every test row."""
        memoized = fitted.evaluate()
        test = fitted.split.test
        naive = predict_proba(fitted.model, test.features)
        np.testing.assert_array_equal(memoized.predictions,
                                      naive.argmax(axis=1))
        assert memoized.inference.n_rows == test.n_cells

    def test_refit_scores_with_the_refit_model(self):
        """A refit of the same topology for as many steps ends at the
        previous model's weights version; its scores must still be its
        own, not the previous model's cache entries."""
        pair = load("hospital", n_rows=60, seed=1)

        def detector():
            return ErrorDetector(architecture="etsb", n_label_tuples=6,
                                 training_config=TrainingConfig(epochs=2),
                                 seed=1)

        refit = detector().fit(pair, labeled_rows=range(6))
        first = refit.score_cells(pair.dirty)
        first_version = refit.model.weights_version
        refit.fit(pair, labeled_rows=range(10, 16))
        assert refit.model.weights_version == first_version
        scores = refit.score_cells(pair.dirty)
        assert refit.inference_stats.cache_hits == 0
        fresh = detector().fit(pair, labeled_rows=range(10, 16))
        assert scores.tobytes() == fresh.score_cells(pair.dirty).tobytes()
        assert scores.tobytes() != first.tobytes()

    def test_cache_entries_keyed_to_current_weights(self, fitted):
        fitted.evaluate()
        assert len(fitted.prediction_cache) > 0
        version = fitted.model.weights_version
        assert fitted.prediction_cache.version == version
