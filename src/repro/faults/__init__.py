"""Deterministic fault injection for chaos testing.

The production-scale goal of this repository is a system whose long
sweeps (the paper's 10-run x 6-dataset x 2-architecture grid) survive
worker crashes and interruptions.  This package provides the proof
machinery: seeded :class:`FaultPlan`\\ s that raise, kill or delay at
named injection points across the training loop, the experiment runner,
the prediction cache and dataset generation, so the recovery layers
(epoch checkpointing, task retry, the completed-task journal) can be
exercised deterministically instead of hoped about.

Activation::

    from repro import faults

    plan = faults.FaultPlan([
        faults.FaultSpec("runner.task_start", "raise", at_hit=2),
    ])
    with faults.use_plan(plan):
        ...  # the second task pickup fails once, retry recovers

or ``REPRO_FAULTS=plan.json`` in the environment.  Forked workers
inherit the installed plan.  With no plan installed every ``inject``
site costs one global load and one identity test.
"""

from repro.faults.plan import (
    ACTIONS,
    FAULTS_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    WorkerKilled,
    active_plan,
    clear_plan,
    inject,
    install_plan,
    use_plan,
)
from repro.faults.points import INJECTION_POINTS, InjectionPoint, describe_points

__all__ = [
    "ACTIONS",
    "FAULTS_ENV_VAR",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "INJECTION_POINTS",
    "InjectionPoint",
    "WorkerKilled",
    "active_plan",
    "clear_plan",
    "describe_points",
    "inject",
    "install_plan",
    "use_plan",
]
