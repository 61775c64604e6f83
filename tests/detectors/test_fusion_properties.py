"""Property tests for score fusion and calibration.

Hypothesis drives the calibrators directly -- every fitted map must be
monotone non-decreasing, land in [0, 1] and fit deterministically, for
any (scores, labels) sample.  The ensemble-level contracts ride on one
tiny real dataset: a single-member ensemble is byte-identical to the
bare member, and fusion is bitwise invariant to the order members were
listed.
"""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load
from repro.detectors import (
    EnsembleDetector,
    IdentityCalibrator,
    fit_calibrator,
    get,
    restore_calibrator,
)

SEED = 0


def calibration_samples():
    """(scores, labels) pairs of matching length, scores in [0, 1]."""
    return st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(min_value=0.0, max_value=1.0,
                               allow_nan=False), min_size=n, max_size=n),
            st.lists(st.integers(min_value=0, max_value=1),
                     min_size=n, max_size=n)))


@pytest.mark.parametrize("method", ["auto", "isotonic", "platt", "identity"])
class TestCalibratorProperties:
    @settings(max_examples=60, deadline=None)
    @given(sample=calibration_samples())
    def test_monotone_and_bounded(self, method, sample):
        scores, labels = np.array(sample[0]), np.array(sample[1])
        calibrator = fit_calibrator(scores, labels, method=method)
        grid = np.linspace(-0.5, 1.5, 101)  # beyond the fitted range too
        out = calibrator.transform(grid)
        assert np.all(np.diff(out) >= 0.0), "calibration must be monotone"
        assert float(out.min()) >= 0.0 and float(out.max()) <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(sample=calibration_samples())
    def test_deterministic_and_state_round_trips(self, method, sample):
        scores, labels = np.array(sample[0]), np.array(sample[1])
        first = fit_calibrator(scores, labels, method=method)
        second = fit_calibrator(scores, labels, method=method)
        grid = np.linspace(0.0, 1.0, 33)
        np.testing.assert_array_equal(first.transform(grid),
                                      second.transform(grid))
        restored = restore_calibrator(first.state())
        np.testing.assert_array_equal(first.transform(grid),
                                      restored.transform(grid))

    @settings(max_examples=30, deadline=None)
    @given(sample=calibration_samples())
    def test_degenerate_labels_fall_back_to_identity(self, method, sample):
        scores = np.array(sample[0])
        labels = np.zeros(scores.size, dtype=np.int64)
        if method == "identity":
            pytest.skip("identity is already the fallback")
        calibrator = fit_calibrator(scores, labels, method=method)
        assert isinstance(calibrator, IdentityCalibrator)


class TestEnsembleFusionContracts:
    @pytest.fixture(scope="class")
    def pair(self):
        return load("beers", n_rows=40, seed=SEED)

    @pytest.fixture(scope="class")
    def labeled_rows(self):
        return [0, 5, 11, 17, 23, 31]

    def test_single_member_ensemble_is_byte_identical(self, pair,
                                                      labeled_rows):
        member_config = get("etsb").example(seed=SEED).config()
        bare = get("etsb").example(seed=SEED).fit(
            pair, labeled_rows=labeled_rows)
        ensemble = EnsembleDetector(
            members=[("etsb", member_config)], seed=SEED).fit(
            pair, labeled_rows=labeled_rows)
        np.testing.assert_array_equal(bare.score_cells(pair.dirty),
                                      ensemble.score_cells(pair.dirty))
        assert ensemble._mode == ("identity",)

    def test_fusion_invariant_to_member_order(self, pair, labeled_rows):
        config = EnsembleDetector.example(seed=SEED).config()
        forward = EnsembleDetector(**config).fit(
            pair, labeled_rows=labeled_rows)
        reversed_config = {**config,
                           "members": list(reversed(config["members"]))}
        backward = EnsembleDetector(**reversed_config).fit(
            pair, labeled_rows=labeled_rows)
        np.testing.assert_array_equal(forward.score_cells(pair.dirty),
                                      backward.score_cells(pair.dirty))

    def test_worker_fanout_matches_serial(self, pair, labeled_rows):
        config = EnsembleDetector.example(seed=SEED).config()
        serial = EnsembleDetector(**config).fit(
            pair, labeled_rows=labeled_rows)
        fanned = EnsembleDetector(**{**config, "n_workers": 2}).fit(
            pair, labeled_rows=labeled_rows)
        np.testing.assert_array_equal(serial.score_cells(pair.dirty),
                                      fanned.score_cells(pair.dirty))

    @pytest.mark.parametrize("n_workers", [0, 2], ids=["serial", "forked"])
    def test_cross_fit_grids_are_member_by_fold(self, pair, labeled_rows,
                                                n_workers):
        """Grid ``2 m + f`` is member ``m`` fitted on fold ``f`` alone."""
        config = EnsembleDetector.example(seed=SEED).config()
        ensemble = EnsembleDetector(**{**config, "n_workers": n_workers})
        folds = (labeled_rows[0::2], labeled_rows[1::2])
        grids = ensemble._cross_fit_scores(pair, folds)
        want = []
        for name, member_config in config["members"]:
            for rows in folds:
                member = get(name)(**member_config)
                member.fit(pair, labeled_rows=rows)
                want.append(member.score_cells(pair.dirty))
        assert len(grids) == len(want) == 4
        for got, expected in zip(grids, want):
            np.testing.assert_array_equal(got, expected)

    def test_calibrated_fusion_stays_in_probability_range(self, pair,
                                                          labeled_rows):
        ensemble = EnsembleDetector.example(seed=SEED).fit(
            pair, labeled_rows=labeled_rows)
        scores = ensemble.score_cells(pair.dirty)
        assert float(scores.min()) >= 0.0
        assert float(scores.max()) <= 1.0
