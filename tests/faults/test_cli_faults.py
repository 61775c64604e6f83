"""CLI surface of the fault harness: ``repro faults`` and the durable
benchmark flags (``--resume``, ``--max-retries``)."""

import pytest

from repro.cli import build_parser, main
from repro.faults import FaultPlan, FaultSpec, INJECTION_POINTS

BENCH = ["--dataset", "hospital", "--rows", "40", "--runs", "2",
         "--tuples", "6", "--epochs", "2"]


class TestParser:
    def test_benchmark_durability_flags(self):
        args = build_parser().parse_args(
            ["benchmark", *BENCH, "--resume", "j.jsonl",
             "--max-retries", "3"])
        assert args.resume == "j.jsonl"
        assert args.max_retries == 3

    def test_benchmark_durability_defaults(self):
        args = build_parser().parse_args(["benchmark", *BENCH])
        assert args.resume is None
        assert args.max_retries == 0

    def test_task_timeout_flag_removed(self):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["benchmark", *BENCH,
                                       "--task-timeout", "5"])
        assert exited.value.code == 2

    def test_faults_run_requires_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "run", *BENCH])


class TestFaultsList:
    def test_lists_every_point(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in INJECTION_POINTS:
            assert name in out

    def test_no_retired_parallel_points(self, capsys):
        """No ``parallel.*`` injection point is registered or listed."""
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "parallel." not in out
        assert not [name for name in INJECTION_POINTS
                    if name.startswith("parallel.")]


class TestFaultsRun:
    def test_clean_plan_exits_zero(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan().save(plan_path)
        assert main(["faults", "run", "--plan", str(plan_path), *BENCH]) == 0
        assert "F1" in capsys.readouterr().out

    def test_kill_then_resume_via_cli(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="runner.task_start", action="kill",
                             match={"task_index": 1})]).save(plan_path)
        journal = tmp_path / "runs.jsonl"
        code = main(["faults", "run", "--plan", str(plan_path),
                     "--resume", str(journal), *BENCH])
        assert code == 1
        err = capsys.readouterr().err
        assert "killed by injected fault" in err
        assert journal.exists()

        # the re-invocation without the plan completes the sweep
        assert main(["benchmark", "--resume", str(journal), *BENCH]) == 0
        assert "F1" in capsys.readouterr().out

    def test_retries_absorb_transient_fault(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="runner.task_start", action="raise",
                             match={"task_index": 0, "attempt": 0})]).save(
            plan_path)
        code = main(["faults", "run", "--plan", str(plan_path),
                     "--max-retries", "2", *BENCH])
        assert code == 0
        assert "fault triggered: runner.task_start [raise] x1" \
            in capsys.readouterr().err

    def test_degraded_benchmark_reports_failures(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="runner.task_start", action="raise",
                             match={"task_index": 1})]).save(plan_path)
        code = main(["faults", "run", "--plan", str(plan_path),
                     "--max-retries", "1", *BENCH])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED task 1" in captured.err
        assert "F1" in captured.out  # partial aggregate still printed

    def test_degraded_comparison_names_the_detector(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="runner.task_start", action="raise",
                             match={"detector": "raha"})]).save(plan_path)
        code = main(["faults", "run", "--plan", str(plan_path),
                     "--max-retries", "1", "--detectors", "etsb,raha",
                     *BENCH])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED task 2 (raha, seed 0)" in captured.err
        assert "FAILED task 3 (raha, seed 1)" in captured.err
        assert "(etsb," not in captured.err
        assert "ETSB-RNN" in captured.out  # the completed detector's row
        assert "Raha" not in captured.out
