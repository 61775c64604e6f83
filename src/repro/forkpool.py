"""Fan coarse, independent tasks out over forked worker processes.

:func:`fork_map` returns ``fn(task)`` for every task, in task order,
whether the tasks ran in forked workers or inline in the calling
process.  Workers are forked, so they inherit ``fn`` and the tasks --
and everything those reach, such as an ingested folder or a fitted
model -- without pickling; only each task's index goes out and only its
result comes back.  Forking copies the parent's memory, not its
threads, so a process with other live threads runs its tasks inline
(a lock held by another thread at the fork would stay locked in the
child forever).

Each task runs under :func:`repro.telemetry.run_captured`, in a worker
or inline alike, and the parent publishes the captured records and
metrics in task order: a worker never writes to a sink it inherited
(a forked file sink would interleave its lines with the parent's).

A worker that dies (a crash, ``os._exit``, the OOM killer) breaks the
whole pool; every task it had not returned then runs inline in the
parent, counted by the ``pool.tasks_rerun`` counter.  Any exception a
task raises surfaces in the parent with its own type.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro import telemetry

__all__ = ["cpu_count", "fork_map"]

#: ``(fn, tasks)`` of the pool a worker was forked for; set in workers only.
_job: tuple[Callable[[Any], Any], Sequence] | None = None


def cpu_count() -> int:
    """CPUs this process may run on (its affinity mask where the
    platform has one, not the host's count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether workers can be forked here: the platform offers the
    ``fork`` start method and no other thread is alive."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1)


def _start_worker(fn: Callable[[Any], Any], tasks: Sequence) -> None:
    # Runs in the forked worker; a forked process receives its
    # initializer's arguments in the memory it inherited, unpickled.
    global _job
    _job = fn, tasks
    # Whatever a worker emits outside a captured task goes nowhere.
    telemetry.set_registry(telemetry.MetricsRegistry())


def _run_task(index: int) -> tuple[Any, dict | None]:
    fn, tasks = _job
    return telemetry.run_captured(fn, tasks[index])


def fork_map(fn: Callable[[Any], Any], tasks: Sequence, workers: int,
             order: Sequence[int] | None = None) -> list:
    """``[fn(task) for task in tasks]``, over ``min(workers, len(tasks))``
    forked workers (module docstring).

    ``order`` is the order tasks are handed to workers (default: task
    order); put the longest first.  With one worker, or where no worker
    can be forked (:func:`_can_fork`), the tasks run inline in task
    order.
    """
    workers = min(workers, len(tasks))
    if workers > 1 and _can_fork():
        captured = _forked(fn, tasks, workers, order)
    else:
        captured = (telemetry.run_captured(fn, task) for task in tasks)
    results = []
    for result, snapshot in captured:
        if snapshot is not None:
            telemetry.publish_captured(snapshot)
        results.append(result)
    return results


def _forked(fn: Callable[[Any], Any], tasks: Sequence, workers: int,
            order: Sequence[int] | None) -> Iterator[tuple[Any, dict | None]]:
    """Each task's :func:`~repro.telemetry.run_captured` pair, in task
    order, computed by forked workers."""
    # A forked child flushes the stdio buffers it inherited when it
    # exits, which would print the parent's pending output twice.
    # (CPython's fork launcher flushes them too; this does not rely on it.)
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    # Named explicitly: the default start method differs by platform
    # and Python version, and only fork lets workers inherit the tasks.
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(fn, tasks))
    try:
        futures = {index: pool.submit(_run_task, index)
                   for index in (range(len(tasks)) if order is None
                                 else order)}
        for index in range(len(tasks)):
            try:
                captured = futures[index].result()
            except BrokenProcessPool:
                if telemetry.enabled():
                    telemetry.get_registry().counter(
                        "pool.tasks_rerun").inc()
                captured = telemetry.run_captured(fn, tasks[index])
            yield captured
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
