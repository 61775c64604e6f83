"""Tests for the Raha-style detector and the augmentation baseline."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.baselines import AugmentationDetector, RahaDetector
from repro.baselines.augment import (
    hashed_ngram_features,
    op_case_flip,
    op_delete_char,
    op_duplicate_char,
    op_swap_adjacent,
)
from repro.datasets import load
from repro.errors import ConfigurationError, NotFittedError
from repro.table import Table


class TestRahaDetector:
    @pytest.fixture
    def pair(self):
        return load("hospital", n_rows=80, seed=3)

    def test_analyze_then_sample(self, pair, rng):
        detector = RahaDetector(rng=rng)
        detector.analyze(pair.dirty, n_labels=5)
        rows = detector.sample_tuples(5)
        assert len(set(rows)) == 5
        assert all(0 <= r < pair.n_rows for r in rows)

    def test_sample_before_analyze_raises(self, rng):
        with pytest.raises(NotFittedError):
            RahaDetector(rng=rng).sample_tuples(3)

    def test_fit_predict_shape(self, pair, rng):
        detector = RahaDetector(rng=rng)
        detector.analyze(pair.dirty, n_labels=5)
        rows = detector.sample_tuples(5)
        mask = np.array(pair.error_mask())
        predictions = detector.fit_predict(rows, mask[rows].astype(np.int64))
        assert predictions.shape == pair.dirty.shape
        assert set(np.unique(predictions)) <= {0, 1}

    def test_detects_hospital_typos_well(self, pair, rng):
        """x-marked typos are pattern-profile catchable: F1 must be high."""
        from repro.metrics import f1_score
        detector = RahaDetector(rng=rng)
        detector.analyze(pair.dirty, n_labels=10)
        rows = detector.sample_tuples(10)
        mask = np.array(pair.error_mask())
        predictions = detector.fit_predict(rows, mask[rows].astype(np.int64))
        test_rows = [i for i in range(pair.n_rows) if i not in set(rows)]
        score = f1_score(mask[test_rows].astype(int).reshape(-1),
                         predictions[test_rows].reshape(-1))
        assert score > 0.5

    def test_label_shape_validation(self, pair, rng):
        detector = RahaDetector(rng=rng)
        detector.analyze(pair.dirty, n_labels=3)
        rows = detector.sample_tuples(3)
        with pytest.raises(ConfigurationError):
            detector.fit_predict(rows, np.zeros((2, pair.n_attributes)))

    def test_oversampling_rejected(self, rng):
        tiny = Table({"a": ["1", "2"], "b": ["x", "y"]})
        detector = RahaDetector(rng=rng)
        detector.analyze(tiny, n_labels=2)
        with pytest.raises(ConfigurationError):
            detector.sample_tuples(3)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RahaDetector(clusters_per_label=0)


class TestAugmentOps:
    def test_delete_char_shortens(self, rng):
        assert len(op_delete_char("hello", rng)) == 4

    def test_duplicate_char_lengthens(self, rng):
        assert len(op_duplicate_char("hello", rng)) == 6

    def test_swap_preserves_multiset(self, rng):
        out = op_swap_adjacent("abcd", rng)
        assert sorted(out) == list("abcd")

    def test_case_flip_changes_one_letter(self, rng):
        out = op_case_flip("abc", rng)
        assert out.lower() == "abc"
        assert sum(a != b for a, b in zip(out, "abc")) == 1

    def test_ops_safe_on_empty(self, rng):
        assert op_delete_char("", rng) == ""
        assert op_swap_adjacent("x", rng) == "x"
        assert op_case_flip("123", rng) == "123"


class TestHashedNgramFeatures:
    def test_fixed_width(self):
        assert hashed_ngram_features("abc").shape == \
            hashed_ngram_features("a completely different text").shape

    def test_empty_flag_feature(self):
        assert hashed_ngram_features("")[-1] == 1.0
        assert hashed_ngram_features("x")[-1] == 0.0

    def test_same_text_same_features(self):
        np.testing.assert_array_equal(hashed_ngram_features("abc"),
                                      hashed_ngram_features("abc"))

    def test_scores_do_not_depend_on_the_hash_salt(self):
        """Two interpreters with different ``PYTHONHASHSEED`` fit the
        registry's augment detector and score byte-equal."""
        script = (
            "import sys\n"
            "from repro.datasets import load\n"
            "from repro.detectors import build\n"
            "pair = load('hospital', n_rows=60, seed=0)\n"
            "detector = build('augment', n_label_tuples=6).fit(pair)\n"
            "sys.stdout.write(detector.score_cells(pair.dirty).tobytes().hex())\n")
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for salt in ("1", "2"):
            done = subprocess.run([sys.executable, "-c", script],
                                  env={**env, "PYTHONHASHSEED": salt},
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


class TestAugmentationDetector:
    def test_learns_simple_error_family(self, rng):
        correct = [f"{i}.0" for i in range(30)]
        wrong = [f"{i}.0 oz" for i in range(30)]
        detector = AugmentationDetector(rng=rng)
        detector.fit(correct + wrong, [0] * 30 + [1] * 30)
        predictions = detector.predict(["5.0", "7.0 oz"])
        assert predictions.tolist() == [0, 1]

    def test_single_class_degenerates_to_constant(self, rng):
        detector = AugmentationDetector(rng=rng)
        detector.fit(["a", "b"], [0, 0])
        assert detector.predict(["zzz"]).tolist() == [0]

    def test_predict_before_fit_raises(self, rng):
        with pytest.raises(NotFittedError):
            AugmentationDetector(rng=rng).predict(["x"])

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            AugmentationDetector(n_augments=-1)
        with pytest.raises(ConfigurationError):
            AugmentationDetector(n_augments=2, ops=())
        with pytest.raises(ConfigurationError):
            AugmentationDetector(rng=rng).fit(["a"], [0, 1])
        with pytest.raises(ConfigurationError):
            AugmentationDetector(rng=rng).fit([], [])

    def test_zero_augments_still_works(self, rng):
        detector = AugmentationDetector(n_augments=0, rng=rng)
        detector.fit(["1.0", "1.0 oz"], [0, 1])
        assert detector.predict(["1.0"]).shape == (1,)
