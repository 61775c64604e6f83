"""Property tests for score fusion and calibration.

Hypothesis drives the calibrators directly -- every fitted map must be
monotone non-decreasing, land in [0, 1] and fit deterministically, for
any (scores, labels) sample.  The ensemble-level contracts ride on one
tiny real dataset: a single-member ensemble is byte-identical to the
bare member, and fusion is bitwise invariant to the order members were
listed.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import forkpool
from repro.datasets import load
from repro.detectors import (
    EnsembleDetector,
    IdentityCalibrator,
    build,
    fit_calibrator,
    get,
    restore_calibrator,
)
from repro.detectors import ensemble as ensemble_module
from repro.experiments.runner import detector_config

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
        """The cross-fit pool (one worker per CPU) fits exactly what the
        inline loop fits; the CPU count is forced to 1 and 2."""
        config = EnsembleDetector.example(seed=SEED).config()
        fitted = []
        for workers in (1, 2):
            with mock.patch.object(forkpool, "cpu_count",
                                   return_value=workers):
                fitted.append(EnsembleDetector(**config).fit(
                    pair, labeled_rows=labeled_rows))
        serial, fanned = fitted
        np.testing.assert_array_equal(serial.score_cells(pair.dirty),
                                      fanned.score_cells(pair.dirty))

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "forked"])
    def test_cross_fit_grids_are_member_by_fold(self, pair, labeled_rows,
                                                workers):
        """Grid ``2 m + f`` is member ``m`` fitted on fold ``f`` alone."""
        config = EnsembleDetector.example(seed=SEED).config()
        ensemble = EnsembleDetector(**config)
        folds = (labeled_rows[0::2], labeled_rows[1::2])
        with mock.patch.object(forkpool, "cpu_count", return_value=workers):
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


class TestMemberSeeds:
    """The ensemble's seed reaches every member it builds -- the fold
    fits, the final members and a loaded archive's -- unless a member's
    spec sets its own."""

    @pytest.fixture(scope="class")
    def pair(self):
        return load("beers", n_rows=30, seed=SEED)

    @staticmethod
    def fitted_seeds(pair, **config):
        """The ensemble fitted inline, and ``(name, seed)`` of every
        member it built."""
        built = []
        real = ensemble_module.build

        def spy(name, **member_config):
            member = real(name, **member_config)
            built.append((name, member.seed))
            return member

        with mock.patch.object(forkpool, "cpu_count", return_value=1), \
                mock.patch.object(ensemble_module, "build", spy):
            ensemble = build("ensemble", **config).fit(
                pair, labeled_rows=[0, 4, 9, 13, 18, 22])
        return ensemble, built

    def test_members_fit_with_the_ensembles_seed(self, pair, tmp_path):
        config = {**detector_config("ensemble", 6, {"epochs": 1}),
                  "seed": 1}
        ensemble, built = self.fitted_seeds(pair, **config)
        # Two fold fits and one final fit per member.
        assert sorted(built) == [("etsb", 1)] * 3 + [("raha", 1)] * 3
        assert [member.seed for member in ensemble._members] == [1, 1]
        ensemble.save(tmp_path / "ensemble")
        loaded = EnsembleDetector.load(tmp_path / "ensemble")
        assert [member.seed for member in loaded._members] == [1, 1]
        assert loaded.fingerprint() == ensemble.fingerprint()

    def test_a_members_own_seed_wins(self, pair):
        _, built = self.fitted_seeds(
            pair, members=["raha", ("etsb", {"seed": 5, "n_label_tuples": 6,
                                             "training_config": {
                                                 "epochs": 1}})],
            n_label_tuples=6, seed=2)
        assert sorted(built) == [("etsb", 5)] * 3 + [("raha", 2)] * 3
