"""One task for every experiment: ``run_task`` over the detector registry.

Every experiment -- the Table 3-5 runs, the comparison, the family
matrix -- is a list of ``(detector, config, pair, seed)`` tasks run by
the runner's durable executor.  These tests pin the task's two
labelled-row rules, the detectors' neural-only fields, pooled execution
of non-neural detectors, and equality with the bespoke Raha and
augmentation loops ``run_task`` replaced.
"""

import time

import numpy as np
import pytest

from repro.baselines.augment import AugmentationDetector
from repro.baselines.raha import RahaDetector
from repro.dataprep import prepare
from repro.datasets import load
from repro.datasets.base import DatasetPair
from repro.errors import ExperimentError
from repro.experiments import (
    detector_config,
    run_detector_comparison,
    run_experiment,
    run_task,
)
from repro.faults import FaultPlan, FaultSpec, use_plan
from repro.metrics import ClassificationReport
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.sampling import DiverSet, RandomSet
from repro.table import Table

TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8)
SETTINGS = dict(n_runs=2, n_label_tuples=6, epochs=2, model_config=TINY)


@pytest.fixture(scope="module")
def pair():
    return load("hospital", n_rows=40, seed=4)


def reports(result):
    return [run.report for run in result.runs]


# -- test-local copies of the retired per-system loops -----------------------


def retired_raha_loop(pair, n_runs, n_label_tuples, base_seed=0):
    """The Raha baseline's former bespoke loop: its own sampler, metrics
    on the cells of the non-labelled tuples."""
    mask = np.array(pair.error_mask())
    out = []
    for seed in range(base_seed, base_seed + n_runs):
        detector = RahaDetector(rng=np.random.default_rng(seed))
        detector.analyze(pair.dirty, n_labels=n_label_tuples)
        labeled = detector.sample_tuples(n_label_tuples)
        predictions = detector.fit_predict(
            labeled, mask[labeled].astype(np.int64))
        test = np.array([i for i in range(pair.n_rows) if i not in labeled])
        out.append(ClassificationReport.from_predictions(
            mask[test].astype(np.int64).reshape(-1),
            predictions[test].reshape(-1)))
    return out


def retired_augment_loop(pair, n_runs, n_label_tuples, base_seed=0):
    """The augmentation baseline's former bespoke loop: DiverSet rows,
    one classifier per attribute, the same generator throughout."""
    prepared = prepare(pair.dirty, pair.clean)
    m = len(prepared.attributes)
    rows = [{"id_": k // m, "attribute": prepared.attributes[k % m],
             "value_x": text, "label": label}
            for k, (text, label) in enumerate(zip(
                prepared.cell_texts(slice(None)), prepared.labels.tolist()))]
    out = []
    for seed in range(base_seed, base_seed + n_runs):
        rng = np.random.default_rng(seed)
        train_ids = set(DiverSet().select(n_label_tuples, prepared, rng))
        y_true, y_pred = [], []
        for attribute in prepared.attributes:
            cells = [r for r in rows if r["attribute"] == attribute]
            train = [r for r in cells if r["id_"] in train_ids]
            test = [r for r in cells if r["id_"] not in train_ids]
            model = AugmentationDetector(rng=rng)
            model.fit([r["value_x"] for r in train],
                      [int(r["label"]) for r in train])
            y_true += [int(r["label"]) for r in test]
            y_pred += [int(p) for p in
                       model.predict([r["value_x"] for r in test])]
        out.append(ClassificationReport.from_predictions(
            np.array(y_true), np.array(y_pred)))
    return out


@pytest.mark.equivalence
class TestRetiredLoops:
    """Augment's hashed features ride on the per-process ``hash()`` salt,
    so both sides run in this one process."""

    @pytest.mark.parametrize("dataset", ["hospital", "beers"])
    def test_raha_matches_retired_loop(self, dataset):
        pair = load(dataset, n_rows=60, seed=1)
        result = run_experiment(pair, "raha", n_runs=2, n_label_tuples=8)
        assert reports(result) == retired_raha_loop(pair, 2, 8)

    @pytest.mark.parametrize("dataset", ["hospital", "beers"])
    def test_augment_matches_retired_loop(self, dataset):
        pair = load(dataset, n_rows=60, seed=1)
        result = run_experiment(pair, "augment", n_runs=2, n_label_tuples=8)
        assert reports(result) == retired_augment_loop(pair, 2, 8)


class TestLabelledRowRules:
    NEURAL = {"n_label_tuples": 6, "model_config": TINY,
              "training_config": TrainingConfig(epochs=2)}

    def test_own_rows_equal_error_detector_evaluate(self, pair):
        """``sampler=None``: the neural task is ``ErrorDetector`` with
        DiverSet, scored on the whole table, restricted to held-out rows.
        The reports agree while no value runs past 128 characters (see
        :class:`TestGroundTruth`)."""
        run = run_task("etsb", dict(self.NEURAL), pair, seed=3)
        detector = ErrorDetector(architecture="etsb", seed=3, **self.NEURAL)
        assert run.report == detector.fit(pair).evaluate().report

    def test_pinned_rows_train_from_a_fresh_generator(self, pair):
        """``sampler=S``: S draws the rows from ``default_rng(seed)`` and
        the model starts from its own ``default_rng(seed)``."""
        run = run_task("etsb", dict(self.NEURAL), pair, seed=3,
                       sampler=RandomSet())
        rows = RandomSet().select(6, prepare(pair.dirty, pair.clean),
                                  np.random.default_rng(3))
        detector = ErrorDetector(architecture="etsb", seed=3, **self.NEURAL)
        detector.fit_tables(pair.dirty, pair.clean, train_ids=rows)
        assert run.report == detector.evaluate().report

    def test_comparison_is_the_diverset_sampler_rule(self, pair):
        compared = run_detector_comparison(
            pair, detectors=("etsb", "raha"), n_runs=2, n_label_tuples=6,
            epochs=2)
        for name in ("etsb", "raha"):
            alone = run_experiment(pair, name, sampler=DiverSet(), n_runs=2,
                                   n_label_tuples=6, epochs=2)
            assert reports(compared[name]) == reports(alone)

    def test_pinned_train_ids_are_checked(self, pair):
        from repro.errors import ConfigurationError, DataError
        detector = ErrorDetector(n_label_tuples=3, seed=0)
        with pytest.raises(ConfigurationError):
            detector.fit_tables(pair.dirty, pair.clean, train_ids=[0, 1])
        with pytest.raises(DataError):
            detector.fit_tables(pair.dirty, pair.clean, train_ids=[0, 1, 1])
        with pytest.raises(DataError):
            detector.fit_tables(pair.dirty, pair.clean,
                                train_ids=[0, 1, 10_000])


    def test_family_matrix_cells_are_single_detector_experiments(self):
        from repro.datasets import taxonomy
        from repro.experiments import default_family_specs, run_family_matrix
        clean = load("beers", n_rows=40, seed=1).clean
        matrix = run_family_matrix(
            clean, systems=("etsb", "raha"), families=("missing",),
            n_runs=1, n_label_tuples=6, epochs=2, seed=3)
        pair = taxonomy.pair_from_taxonomy(
            "taxonomy-missing", clean, default_family_specs(clean)["missing"],
            seed=3)
        for system in ("etsb", "raha"):
            alone = run_experiment(pair, system, n_runs=1, n_label_tuples=6,
                                   epochs=2, base_seed=3)
            assert reports(matrix.cell("missing", system).result) == \
                reports(alone)


class TestGroundTruth:
    """Every detector is scored against ``pair.error_mask()``, which
    compares whole values -- also past the 128 characters ``prepare``
    keeps, where the neural input stops."""

    HELD_OUT = 12  # 16 tuples, 4 labelled

    @pytest.fixture(scope="class")
    def long_pair(self):
        """Every ``code`` cell has a typo; every ``note`` differs from
        its clean value only after character 130."""
        stem = "x" * 130
        clean = Table({"code": [f"c{i:02d}" for i in range(16)],
                       "note": [stem + "ok"] * 16})
        dirty = Table({"code": [f"c{i:02d}!" for i in range(16)],
                       "note": [stem + "no"] * 16})
        return DatasetPair(name="long", dirty=dirty, clean=clean)

    @pytest.mark.parametrize("name", ["etsb", "raha", "augment"])
    def test_a_difference_past_the_cut_is_an_error(self, long_pair, name):
        config = detector_config(name, 4, TrainingConfig(epochs=1), TINY)
        report = run_task(name, config, long_pair, seed=0).report
        assert report.tp + report.fn == 2 * self.HELD_OUT

    def test_evaluate_labels_the_cut_values(self, long_pair):
        detector = ErrorDetector(architecture="etsb", seed=0,
                                 n_label_tuples=4, model_config=TINY,
                                 training_config=TrainingConfig(epochs=1))
        report = detector.fit(long_pair).evaluate().report
        assert report.tp + report.fn == self.HELD_OUT  # the typos only


class TestNeuralOnlyFields:
    def test_neural_runs_carry_epochs_and_inference_counters(self, pair):
        result = run_experiment(pair, "etsb", **SETTINGS)
        for run in result.runs:
            assert run.best_epoch is not None
            # The whole-table scoring pass: 40 rows x every attribute.
            assert 0.0 < run.unique_cell_ratio <= 1.0
            assert run.cache_misses > 0

    @pytest.mark.parametrize("name", ["raha", "augment"])
    def test_other_detectors_record_none_or_zero(self, pair, name):
        result = run_experiment(pair, name, n_runs=1, n_label_tuples=6)
        (run,) = result.runs
        assert run.best_epoch is None
        assert run.unique_cell_ratio is None
        assert (run.cache_hits, run.cache_misses) == (0, 0)
        assert run.train_accuracy_curve == run.test_accuracy_curve == ()

    def test_track_curves_needs_a_neural_detector(self, pair):
        with pytest.raises(ExperimentError, match="track_curves"):
            run_experiment(pair, "raha", n_runs=1, n_label_tuples=6,
                           track_curves=True)
        with pytest.raises(ExperimentError, match="track_curves"):
            run_task("raha", {"n_label_tuples": 6}, pair, 0,
                     track_curves=True)

    def test_unknown_detector_rejected(self, pair):
        with pytest.raises(ExperimentError, match="unknown detector"):
            run_experiment(pair, "nonesuch", n_runs=1)


class TestPooledDetectors:
    @pytest.mark.parametrize("name", ["raha", "ensemble"])
    def test_pool_reproduces_serial(self, pair, name):
        """The ensemble's cross-fit ``fork_map`` then runs inside a pool
        worker."""
        serial = run_experiment(pair, name, **SETTINGS)
        pooled = run_experiment(pair, name, **SETTINGS, n_workers=2)
        assert reports(pooled) == reports(serial)
        assert [r.seed for r in pooled.runs] == [0, 1]


class TestTaskIdentity:
    def test_fault_context_names_the_detector(self, pair):
        """A fault aimed at one detector fails only that detector's row."""
        plan = FaultPlan([FaultSpec(point="runner.task_start",
                                    action="raise",
                                    match={"detector": "raha"})])
        with use_plan(plan):
            results = run_detector_comparison(
                pair, detectors=("etsb", "raha"), n_runs=2,
                n_label_tuples=6, epochs=2, fail_fast=False,
                retry_backoff=0.0)
        assert len(results["etsb"].runs) == 2
        assert results["etsb"].failures == ()
        assert results["raha"].runs == ()
        assert [f.task_index for f in results["raha"].failures] == [2, 3]

    def test_detector_config_threads_the_scale(self):
        config = detector_config("ensemble", 6, {"epochs": 3})
        assert config == {"n_label_tuples": 6, "members": [
            ("etsb", {"n_label_tuples": 6,
                      "training_config": {"epochs": 3}}),
            ("raha", {})]}
        assert detector_config("raha", 6, {"epochs": 3}) == \
            {"n_label_tuples": 6}

    def test_train_seconds_times_the_fit(self, pair):
        started = time.perf_counter()
        run = run_task("raha", {"n_label_tuples": 6}, pair, 0)
        assert 0.0 < run.train_seconds <= time.perf_counter() - started

    def test_a_samplers_choice_is_not_timed(self, pair):
        class SlowDiverSet(DiverSet):
            def select(self, *args):
                time.sleep(0.3)
                return super().select(*args)

        started = time.perf_counter()
        run = run_task("raha", {"n_label_tuples": 6}, pair, 0,
                       sampler=SlowDiverSet())
        assert 0.0 < run.train_seconds <= \
            time.perf_counter() - started - 0.3
