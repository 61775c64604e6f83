"""Durable experiment execution: retry, journal resume, degradation.

The acceptance contract: kill the sweep at any task index, re-invoke
with the same journal, and the aggregated result equals the failure-free
run's.  Retries absorb transient (``Exception``) failures only -- a
``kill`` is a ``BaseException`` and always escapes, exactly like the
SIGKILL it stands in for.
"""

import json

import pytest

from repro import telemetry
from repro.errors import ExperimentError
from repro.experiments import (
    TaskJournal,
    run_detector_comparison,
    run_experiment,
    task_key,
)
from repro.experiments.journal import run_result_from_json, run_result_to_json
from repro.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultSpec,
    WorkerKilled,
    clear_plan,
    use_plan,
)

from tests.faults.conftest import SETTINGS


def reports(result):
    return [run.report for run in result.runs]


@pytest.fixture(scope="module")
def reference(pair):
    return run_experiment(pair, **SETTINGS)


class TestRetry:
    def test_transient_failure_absorbed(self, pair, reference):
        plan = FaultPlan([FaultSpec(point="runner.task_start",
                                    action="raise",
                                    match={"task_index": 1, "attempt": 0})])
        with use_plan(plan):
            result = run_experiment(pair, **SETTINGS, max_retries=2,
                                    retry_backoff=0.0)
        assert reports(result) == reports(reference)
        assert result.failures == ()

    def test_retries_exhausted_raises_by_default(self, pair):
        plan = FaultPlan([FaultSpec(point="runner.task_start",
                                    action="raise", match={"task_index": 0})])
        with use_plan(plan):
            with pytest.raises(ExperimentError, match="after 2 attempt"):
                run_experiment(pair, **SETTINGS, max_retries=1,
                               retry_backoff=0.0)

    def test_graceful_degradation_records_failure(self, pair, reference):
        plan = FaultPlan([FaultSpec(point="runner.task_end",
                                    action="raise", match={"task_index": 2})])
        with use_plan(plan):
            result = run_experiment(pair, **SETTINGS, max_retries=1,
                                    retry_backoff=0.0, fail_fast=False)
        assert len(result.runs) == SETTINGS["n_runs"] - 1
        assert reports(result) == reports(reference)[:-1]
        (failure,) = result.failures
        assert failure.task_index == 2
        assert failure.attempts == 2
        assert failure.error_type == "FaultInjected"

    def test_kill_never_retried(self, pair):
        plan = FaultPlan([FaultSpec(point="runner.task_start",
                                    action="kill", match={"task_index": 0})])
        with use_plan(plan):
            with pytest.raises(WorkerKilled):
                run_experiment(pair, **SETTINGS, max_retries=5,
                               retry_backoff=0.0, fail_fast=False)

    def test_invalid_durability_args_rejected(self, pair):
        with pytest.raises(ExperimentError, match="max_retries"):
            run_experiment(pair, **SETTINGS, max_retries=-1)
        with pytest.raises(ExperimentError, match="retry_backoff"):
            run_experiment(pair, **SETTINGS, retry_backoff=-0.5)

    def test_retry_telemetry_counters(self, pair):
        plan = FaultPlan([FaultSpec(point="runner.task_start",
                                    action="raise",
                                    match={"task_index": 0, "attempt": 0})])
        registry = telemetry.MetricsRegistry()
        with telemetry.use_telemetry(registry), use_plan(plan):
            run_experiment(pair, **SETTINGS, max_retries=1, retry_backoff=0.0)
        counters = registry.snapshot()["counters"]
        assert counters["retry.attempts"] == 1
        assert counters["retry.successes"] == 1
        assert counters["faults.injected"] == 1
        assert counters["runner.tasks_completed"] == SETTINGS["n_runs"]


class TestJournal:
    def test_kill_then_resume_matches_reference(self, tmp_path, pair,
                                                reference):
        journal_path = tmp_path / "runs.jsonl"
        plan = FaultPlan([FaultSpec(point="runner.task_start",
                                    action="kill", match={"task_index": 1})])
        with use_plan(plan):
            with pytest.raises(WorkerKilled):
                run_experiment(pair, **SETTINGS, journal_path=journal_path)
        # Task 0 completed and is journalled; the re-invocation (no
        # faults -- the "fixed environment" rerun) finishes the rest.
        resumed = run_experiment(pair, **SETTINGS, journal_path=journal_path)
        assert reports(resumed) == reports(reference)
        assert [r.seed for r in resumed.runs] == [r.seed
                                                  for r in reference.runs]

    def test_completed_tasks_are_skipped(self, tmp_path, pair):
        journal_path = tmp_path / "runs.jsonl"
        run_experiment(pair, **SETTINGS, journal_path=journal_path)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_telemetry(registry):
            again = run_experiment(pair, **SETTINGS,
                                   journal_path=journal_path)
        counters = registry.snapshot()["counters"]
        assert counters.get("runner.tasks_skipped") == SETTINGS["n_runs"]
        assert "runner.tasks_completed" not in counters
        assert len(again.runs) == SETTINGS["n_runs"]

    def test_fingerprint_mismatch_rejected(self, tmp_path, pair):
        journal_path = tmp_path / "runs.jsonl"
        run_experiment(pair, **SETTINGS, journal_path=journal_path)
        with pytest.raises(ExperimentError, match="fingerprint"):
            run_experiment(pair, **{**SETTINGS, "n_label_tuples": 8},
                           journal_path=journal_path)

    def test_widening_n_runs_reuses_journal(self, tmp_path, pair):
        journal_path = tmp_path / "runs.jsonl"
        run_experiment(pair, **{**SETTINGS, "n_runs": 2},
                       journal_path=journal_path)
        registry = telemetry.MetricsRegistry()
        with telemetry.use_telemetry(registry):
            widened = run_experiment(pair, **SETTINGS,
                                     journal_path=journal_path)
        counters = registry.snapshot()["counters"]
        assert counters["runner.tasks_skipped"] == 2
        assert counters["runner.tasks_completed"] == 1
        assert len(widened.runs) == SETTINGS["n_runs"]

    def test_torn_trailing_line_ignored(self, tmp_path, pair, reference):
        journal_path = tmp_path / "runs.jsonl"
        run_experiment(pair, **{**SETTINGS, "n_runs": 2},
                       journal_path=journal_path)
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "task", "key": "etsb:hospital:2", "res')
        resumed = run_experiment(pair, **SETTINGS, journal_path=journal_path)
        assert reports(resumed) == reports(reference)

    def test_non_journal_file_rejected(self, tmp_path, pair):
        journal_path = tmp_path / "runs.jsonl"
        journal_path.write_text('{"something": "else"}\n')
        with pytest.raises(ExperimentError, match="not a task journal"):
            run_experiment(pair, **SETTINGS, journal_path=journal_path)

    def test_run_result_json_round_trip(self, reference):
        for run in reference.runs:
            clone = run_result_from_json(
                json.loads(json.dumps(run_result_to_json(run))))
            assert clone == run

    def test_journal_direct_api(self, tmp_path, reference):
        journal = TaskJournal(tmp_path / "j.jsonl", {"config": 1})
        assert journal.load() == {}
        run = reference.runs[0]
        journal.record(task_key("etsb", "hospital", run.seed), run)
        reloaded = TaskJournal(tmp_path / "j.jsonl", {"config": 1}).load()
        assert reloaded == {task_key("etsb", "hospital", run.seed): run}


@pytest.mark.chaos
class TestChaosSweep:
    """Kill at every task index; --resume must equal the clean run."""

    @pytest.mark.parametrize("backend, n_workers", [
        pytest.param("fused", None, id="fused"),
        pytest.param("graph", None, id="graph"),
        pytest.param("fused", 2, id="fused-pooled"),
        pytest.param("graph", 2, id="graph-pooled")])
    def test_kill_every_task_index_then_resume(self, tmp_path, backend,
                                               n_workers, pair):
        from repro.nn import use_backend

        with use_backend(backend):
            reference = run_experiment(pair, **SETTINGS)
            for kill_index in range(SETTINGS["n_runs"]):
                journal_path = tmp_path / f"{backend}-{kill_index}.jsonl"
                plan = FaultPlan([FaultSpec(point="runner.task_start",
                                            action="kill",
                                            match={"task_index": kill_index})])
                with use_plan(plan):
                    with pytest.raises(WorkerKilled):
                        run_experiment(pair, **SETTINGS, n_workers=n_workers,
                                       journal_path=journal_path)
                resumed = run_experiment(pair, **SETTINGS,
                                         n_workers=n_workers,
                                         journal_path=journal_path)
                assert reports(resumed) == reports(reference)
                assert resumed.failures == ()

    def test_pooled_kill_and_resume(self, tmp_path, pair, monkeypatch):
        """The env-var route: workers inherit the plan, kill propagates."""
        reference = run_experiment(pair, **SETTINGS)
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="runner.task_start", action="kill",
                             match={"task_index": 1})]).save(plan_path)
        journal_path = tmp_path / "runs.jsonl"
        monkeypatch.setenv(FAULTS_ENV_VAR, str(plan_path))
        clear_plan(reset_env=True)
        with pytest.raises(WorkerKilled):
            run_experiment(pair, **SETTINGS, n_workers=2,
                           journal_path=journal_path)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        clear_plan(reset_env=True)
        resumed = run_experiment(pair, **SETTINGS, n_workers=2,
                                 journal_path=journal_path)
        assert reports(resumed) == reports(reference)

    def test_comparison_kill_every_task_index_then_resume(self, tmp_path,
                                                          pair):
        """One journal holds a whole comparison: its keys name the
        detector, so a killed sweep resumes every detector's row."""
        settings = dict(detectors=("etsb", "raha"), n_runs=2,
                        n_label_tuples=6, epochs=2)
        reference = run_detector_comparison(pair, **settings)
        for kill_index in range(4):
            journal_path = tmp_path / f"comparison-{kill_index}.jsonl"
            plan = FaultPlan([FaultSpec(point="runner.task_start",
                                        action="kill",
                                        match={"task_index": kill_index})])
            with use_plan(plan):
                with pytest.raises(WorkerKilled):
                    run_detector_comparison(pair, **settings,
                                            journal_path=journal_path)
            resumed = run_detector_comparison(pair, **settings,
                                              journal_path=journal_path)
            for name, result in reference.items():
                assert reports(resumed[name]) == reports(result)
                assert resumed[name].failures == ()
