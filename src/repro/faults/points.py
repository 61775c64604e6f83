"""The registry of named injection points.

An injection point is a place in a hot path where
:func:`repro.faults.inject` is called with a point name and a small
context dict (epoch number, task index, ...).  The registry below is the
single source of truth: plans referencing an unknown point are rejected
at construction time, and ``repro faults list`` renders this table.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class InjectionPoint:
    """One instrumented site of the library.

    Attributes
    ----------
    name:
        Dotted identifier used by :class:`~repro.faults.plan.FaultSpec`.
    description:
        Where the site lives and what a fault there simulates.
    context:
        Context keys passed to ``inject`` at this site (usable in a
        spec's ``match`` filter).
    """

    name: str
    description: str
    context: tuple[str, ...] = ()


INJECTION_POINTS: dict[str, InjectionPoint] = {
    point.name: point
    for point in (
        InjectionPoint(
            "trainer.batch_step",
            "Trainer.fit, before each mini-batch's forward/backward/step "
            "(a fault here leaves the epoch half-applied).",
            ("epoch", "batch"),
        ),
        InjectionPoint(
            "trainer.epoch_end",
            "Trainer.fit, after an epoch's callbacks but before the "
            "epoch checkpoint is written (the harshest crash window: "
            "resume replays the whole epoch).",
            ("epoch",),
        ),
        InjectionPoint(
            "runner.task_start",
            "Experiment runner, before a (detector, dataset, seed) task "
            "fits (simulates a worker dying on pickup).",
            ("task_index", "detector", "dataset", "seed", "attempt"),
        ),
        InjectionPoint(
            "runner.task_end",
            "Experiment runner, after a task fitted and scored but before "
            "its result is recorded (simulates losing a finished run).",
            ("task_index", "detector", "dataset", "seed", "attempt"),
        ),
        InjectionPoint(
            "cache.lookup",
            "PredictionCache.get, before the LRU lookup (simulates a "
            "flaky cache tier).",
            (),
        ),
        InjectionPoint(
            "dataset.generate",
            "Dataset registry load(), before generation (simulates "
            "unreadable source data).",
            ("dataset",),
        ),
    )
}


def describe_points() -> str:
    """Human-readable table of every injection point (CLI ``faults list``)."""
    lines = []
    for point in INJECTION_POINTS.values():
        ctx = f" [context: {', '.join(point.context)}]" if point.context else ""
        lines.append(f"{point.name}\n    {point.description}{ctx}")
    return "\n".join(lines)
