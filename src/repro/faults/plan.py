"""Deterministic fault plans and the ``inject`` hot-path hook.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` triggers over
the named injection points of :mod:`repro.faults.points`.  Hot paths call
:func:`inject("point", **context)`; with no plan installed that is one
global load and one ``is None`` test, so production code pays nothing.

Faults come in three actions:

* ``"raise"`` -- raise :class:`FaultInjected` (an ordinary ``Exception``):
  the recoverable failure the retry machinery is allowed to absorb;
* ``"kill"`` -- raise :class:`WorkerKilled` (a ``BaseException``): a
  simulated hard crash that no ``except Exception`` recovery path may
  swallow, exactly like a SIGKILL would end the process mid-step;
* ``"delay"`` -- sleep ``delay_seconds`` and continue (exercises slow
  steps without failing).

Plans activate programmatically (:func:`install_plan` / :func:`use_plan`)
or through the ``REPRO_FAULTS`` environment variable naming a JSON plan
file, read at a process's first ``inject``.  Workers forked by
:func:`repro.forkpool.fork_map` inherit whatever plan their parent has
installed.

Determinism: triggers depend only on the plan (its seed drives the
probabilistic specs) and the per-process sequence of ``inject`` calls,
never on wall clock or process ids, so a chaos run replays exactly.
"""

from __future__ import annotations

import json
import os
import time

from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.faults.points import INJECTION_POINTS

#: Environment variable naming a JSON plan file to activate in-process.
FAULTS_ENV_VAR = "REPRO_FAULTS"

ACTIONS = ("raise", "kill", "delay")


class FaultInjected(Exception):
    """A recoverable injected failure (the ``"raise"`` action)."""

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected fault at {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit

    def __reduce__(self):
        # Default exception pickling replays ``cls(*args)`` with the
        # formatted message; rebuild from (point, hit) instead so the
        # exception survives the process-pool result channel.
        return (type(self), (self.point, self.hit))


class WorkerKilled(BaseException):
    """A simulated hard crash (the ``"kill"`` action).

    Derives from ``BaseException`` on purpose: retry/except-Exception
    recovery must never absorb a kill, mirroring a real SIGKILL.
    """

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected kill at {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit

    def __reduce__(self):
        return (type(self), (self.point, self.hit))


@dataclass(frozen=True)
class FaultSpec:
    """One trigger rule of a plan.

    Attributes
    ----------
    point:
        Injection point name (must exist in
        :data:`repro.faults.points.INJECTION_POINTS`).
    action:
        ``"raise"``, ``"kill"`` or ``"delay"``.
    at_hit:
        Fire exactly when the point's per-process hit counter equals this
        1-based value (``None``: no hit constraint).  Because the counter
        keeps advancing across retries, ``at_hit=1`` naturally means
        "fail the first attempt, succeed afterwards".
    probability:
        Fire with this probability per matching hit, drawn from the
        plan's seeded generator (``None``: deterministic).
    delay_seconds:
        Sleep duration for the ``"delay"`` action.
    match:
        Context equality filter, e.g. ``{"epoch": 3}`` or
        ``{"task_index": 2}``; only hits whose context matches every
        entry are eligible.
    max_triggers:
        Stop firing after this many triggers (``None``: unlimited).
    """

    point: str
    action: str
    at_hit: int | None = None
    probability: float | None = None
    delay_seconds: float = 0.0
    match: Mapping[str, Any] | None = None
    max_triggers: int | None = None

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ConfigurationError(
                f"unknown injection point {self.point!r}; "
                f"available: {sorted(INJECTION_POINTS)}"
            )
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"action must be one of {ACTIONS}, got {self.action!r}"
            )
        if self.at_hit is not None and self.at_hit < 1:
            raise ConfigurationError(
                f"at_hit must be >= 1, got {self.at_hit}"
            )
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.delay_seconds < 0:
            raise ConfigurationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.max_triggers is not None and self.max_triggers < 1:
            raise ConfigurationError(
                f"max_triggers must be >= 1, got {self.max_triggers}"
            )

    def matches(self, context: Mapping[str, Any]) -> bool:
        """Whether the hit's context passes this spec's ``match`` filter."""
        if not self.match:
            return True
        return all(context.get(key) == value
                   for key, value in self.match.items())


class FaultPlan:
    """A seeded, replayable set of fault triggers.

    Parameters
    ----------
    specs:
        The trigger rules.
    seed:
        Drives the probabilistic specs; two plans with equal specs and
        seed fire identically given the same ``inject`` call sequence.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        """Clear hit counters and re-seed (a fresh replay of the plan)."""
        self._hits: dict[str, int] = {}
        self._triggers: list[int] = [0] * len(self.specs)
        self._rng = np.random.default_rng(self.seed)

    def hits(self, point: str) -> int:
        """How many times ``point`` has been reached in this process."""
        return self._hits.get(point, 0)

    def triggers(self) -> tuple[int, ...]:
        """Per-spec trigger counts."""
        return tuple(self._triggers)

    def fire(self, point: str, context: Mapping[str, Any]) -> None:
        """Account one hit of ``point`` and apply any triggered faults."""
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        for index, spec in enumerate(self.specs):
            if spec.point != point:
                continue
            if (spec.max_triggers is not None
                    and self._triggers[index] >= spec.max_triggers):
                continue
            if spec.at_hit is not None and hit != spec.at_hit:
                continue
            if not spec.matches(context):
                continue
            if (spec.probability is not None
                    and self._rng.random() >= spec.probability):
                continue
            self._triggers[index] += 1
            _record_trigger(point, spec.action, hit)
            if spec.action == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.action == "raise":
                raise FaultInjected(point, hit)
            else:
                raise WorkerKilled(point, hit)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-able plan description (the ``REPRO_FAULTS`` file format)."""
        return {
            "seed": self.seed,
            "specs": [
                {key: value for key, value in asdict(spec).items()
                 if value is not None}
                for spec in self.specs
            ],
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Reconstruct a plan from :meth:`to_json` output."""
        if not isinstance(payload, Mapping) or "specs" not in payload:
            raise ConfigurationError(
                "a fault plan needs a 'specs' list (and optional 'seed')"
            )
        specs = []
        for entry in payload["specs"]:
            try:
                specs.append(FaultSpec(**entry))
            except TypeError as exc:
                raise ConfigurationError(f"bad fault spec {entry}: {exc}") from None
        return cls(specs, seed=int(payload.get("seed", 0)))

    def save(self, path: str | Path) -> None:
        """Write the plan as a JSON file usable via ``REPRO_FAULTS``."""
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan written by :meth:`save`."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from None
        return cls.from_json(payload)

    def __repr__(self) -> str:
        return f"FaultPlan(n_specs={len(self.specs)}, seed={self.seed})"


def _record_trigger(point: str, action: str, hit: int) -> None:
    """Telemetry accounting of one fired fault."""
    if not telemetry.enabled():
        return
    registry = telemetry.get_registry()
    registry.counter("faults.injected").inc()
    registry.counter(f"faults.{action}").inc()
    registry.emit({"type": "fault", "point": point, "action": action,
                   "hit": hit})


# -- plan activation ----------------------------------------------------------

class _Unresolved:
    """Sentinel: the environment has not been consulted yet."""


_UNRESOLVED = _Unresolved()
_plan: FaultPlan | None | _Unresolved = _UNRESOLVED


def _resolve_env() -> FaultPlan | None:
    """Load the plan named by ``REPRO_FAULTS`` (once per process)."""
    global _plan
    path = os.environ.get(FAULTS_ENV_VAR)
    _plan = FaultPlan.load(path) if path else None
    return _plan


def install_plan(plan: FaultPlan | None) -> None:
    """Activate ``plan`` process-wide (``None`` deactivates)."""
    global _plan
    _plan = plan


def clear_plan(reset_env: bool = False) -> None:
    """Deactivate any plan; with ``reset_env`` the variable is re-read
    on the next :func:`inject` call (used by tests)."""
    global _plan
    _plan = _UNRESOLVED if reset_env else None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, resolving the environment if needed."""
    plan = _plan
    if isinstance(plan, _Unresolved):
        plan = _resolve_env()
    return plan


@contextmanager
def use_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    global _plan
    previous = _plan
    install_plan(plan)
    try:
        yield plan
    finally:
        _plan = previous


def inject(point: str, **context: Any) -> None:
    """Hot-path hook: apply any active fault for ``point``.

    With no plan installed (the production default) this is one global
    load and one identity test.
    """
    plan = _plan
    if plan is None:
        return
    if isinstance(plan, _Unresolved):
        plan = _resolve_env()
        if plan is None:
            return
    plan.fire(point, context)
