"""Unit tests for the fault-plan harness itself.

The contracts: specs validate eagerly, triggers are deterministic given
the plan seed and the ``inject`` call sequence, activation routes
(programmatic, context-manager, environment variable) behave
identically, and triggered faults are visible to telemetry.
"""

import json
import multiprocessing

import pytest

from repro import forkpool, telemetry
from repro.errors import ConfigurationError
from repro.faults import (
    ACTIONS,
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    INJECTION_POINTS,
    WorkerKilled,
    active_plan,
    clear_plan,
    describe_points,
    inject,
    install_plan,
    use_plan,
)


class TestFaultSpecValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown injection point"):
            FaultSpec(point="nope.nothing", action="raise")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="action"):
            FaultSpec(point="cache.lookup", action="explode")

    @pytest.mark.parametrize("kwargs", [
        {"at_hit": 0},
        {"probability": 0.0},
        {"probability": 1.5},
        {"delay_seconds": -1.0},
        {"max_triggers": 0},
    ])
    def test_bad_numeric_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(point="cache.lookup", action="raise", **kwargs)

    def test_every_registered_point_is_usable(self):
        for name in INJECTION_POINTS:
            FaultSpec(point=name, action="delay")

    def test_describe_points_lists_every_point(self):
        text = describe_points()
        for name in INJECTION_POINTS:
            assert name in text


class TestPlanFiring:
    def test_at_hit_fires_exactly_once(self):
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="raise",
                                    at_hit=3)])
        with use_plan(plan):
            inject("cache.lookup")
            inject("cache.lookup")
            with pytest.raises(FaultInjected) as exc:
                inject("cache.lookup")
            assert exc.value.hit == 3
            inject("cache.lookup")  # hit 4: no further trigger
        assert plan.hits("cache.lookup") == 4
        assert plan.triggers() == (1,)

    def test_kill_is_base_exception(self):
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="kill")])
        with use_plan(plan):
            with pytest.raises(WorkerKilled):
                try:
                    inject("cache.lookup")
                except Exception:  # noqa: BLE001 - the point of the test
                    pytest.fail("except Exception absorbed a kill")

    def test_match_filters_on_context(self):
        plan = FaultPlan([FaultSpec(point="trainer.epoch_end",
                                    action="raise", match={"epoch": 2})])
        with use_plan(plan):
            inject("trainer.epoch_end", epoch=0)
            inject("trainer.epoch_end", epoch=1)
            with pytest.raises(FaultInjected):
                inject("trainer.epoch_end", epoch=2)

    def test_max_triggers_caps_firing(self):
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="raise",
                                    max_triggers=2)])
        with use_plan(plan):
            for _ in range(2):
                with pytest.raises(FaultInjected):
                    inject("cache.lookup")
            inject("cache.lookup")
        assert plan.triggers() == (2,)

    def test_probabilistic_firing_is_seed_deterministic(self):
        def trigger_pattern(seed):
            plan = FaultPlan([FaultSpec(point="cache.lookup", action="raise",
                                        probability=0.5)], seed=seed)
            pattern = []
            with use_plan(plan):
                for _ in range(32):
                    try:
                        inject("cache.lookup")
                        pattern.append(False)
                    except FaultInjected:
                        pattern.append(True)
            return pattern

        assert trigger_pattern(7) == trigger_pattern(7)
        assert any(trigger_pattern(7))          # some hits fire...
        assert not all(trigger_pattern(7))      # ...but not all
        assert trigger_pattern(7) != trigger_pattern(8)

    def test_reset_replays_identically(self):
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="raise",
                                    probability=0.5)], seed=3)

        def run():
            fired = []
            for _ in range(16):
                try:
                    plan.fire("cache.lookup", {})
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        first = run()
        plan.reset()
        assert run() == first

    def test_delay_sleeps_and_continues(self):
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="delay",
                                    delay_seconds=0.01, at_hit=1)])
        with use_plan(plan):
            inject("cache.lookup")  # must not raise
        assert plan.triggers() == (1,)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_forked_workers_count_into_triggers(self):
        """Four workers, more than the CPUs, fire at once: every trigger
        reaches the plan's count, none lost to a concurrent update."""
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="delay")])

        def fire(_):
            for _ in range(500):
                plan.fire("cache.lookup", {})

        list(forkpool.fork_map(fire, range(8), 4))
        assert plan.triggers() == (4000,)
        plan.reset()
        assert plan.triggers() == (0,)

    def test_inject_without_plan_is_noop(self):
        clear_plan()
        inject("cache.lookup")
        inject("trainer.epoch_end", epoch=0)


class TestActivationRoutes:
    def test_install_and_clear(self):
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="raise")])
        install_plan(plan)
        assert active_plan() is plan
        with pytest.raises(FaultInjected):
            inject("cache.lookup")
        clear_plan()
        assert active_plan() is None
        inject("cache.lookup")

    def test_use_plan_restores_previous(self):
        outer = FaultPlan()
        install_plan(outer)
        inner = FaultPlan([FaultSpec(point="cache.lookup", action="raise")])
        with use_plan(inner):
            assert active_plan() is inner
        assert active_plan() is outer

    def test_env_var_activation(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="cache.lookup", action="raise",
                             at_hit=1)]).save(path)
        monkeypatch.setenv(FAULTS_ENV_VAR, str(path))
        clear_plan(reset_env=True)
        with pytest.raises(FaultInjected):
            inject("cache.lookup")

    def test_env_var_resolved_once(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        FaultPlan().save(path)
        monkeypatch.setenv(FAULTS_ENV_VAR, str(path))
        clear_plan(reset_env=True)
        first = active_plan()
        assert first is not None
        assert active_plan() is first  # cached, not re-read per call


class TestSerialization:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan([
            FaultSpec(point="runner.task_start", action="kill",
                      match={"task_index": 2}),
            FaultSpec(point="trainer.batch_step", action="raise",
                      at_hit=5, probability=0.5, max_triggers=3),
            FaultSpec(point="cache.lookup", action="delay",
                      delay_seconds=0.25),
        ], seed=42)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.seed == 42
        assert loaded.specs == plan.specs

    def test_plan_file_is_plain_json(self, tmp_path):
        path = tmp_path / "plan.json"
        FaultPlan([FaultSpec(point="cache.lookup", action="raise")]).save(path)
        payload = json.loads(path.read_text())
        assert payload["specs"][0]["point"] == "cache.lookup"

    def test_bad_plan_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.load(path)
        path.write_text(json.dumps({"specs": [{"point": "cache.lookup"}]}))
        with pytest.raises(ConfigurationError):
            FaultPlan.load(path)

    def test_exceptions_survive_pickling(self):
        import pickle

        for exc in (FaultInjected("cache.lookup", 3),
                    WorkerKilled("runner.task_start", 1)):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert (clone.point, clone.hit) == (exc.point, exc.hit)


class TestTelemetry:
    def test_triggers_count_into_registry(self):
        registry = telemetry.MetricsRegistry()
        sink = telemetry.MemorySink()
        registry.add_sink(sink)
        plan = FaultPlan([FaultSpec(point="cache.lookup", action="raise")])
        with telemetry.use_telemetry(registry), use_plan(plan):
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    inject("cache.lookup")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["faults.injected"] == 3
        assert snapshot["counters"]["faults.raise"] == 3
        fault_records = [r for r in sink.records if r.get("type") == "fault"]
        assert len(fault_records) == 3
        assert fault_records[0]["point"] == "cache.lookup"

    def test_every_action_has_a_counter(self):
        assert set(ACTIONS) == {"raise", "kill", "delay"}
