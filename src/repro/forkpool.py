"""Fan coarse, independent tasks out over forked worker processes.

:func:`fork_map` yields ``fn(task)`` for every task, in task order, like
``map``, whether the tasks run in forked workers or inline in the
calling process.  Workers are forked, so they inherit ``fn`` and the
tasks -- and everything those reach, such as an ingested folder, a
fitted model or an installed fault plan -- without pickling; only each
task's index goes out and only its result comes back.  Forking copies
the parent's memory, not its threads, so a process with other live
threads runs its tasks inline (a lock held by another thread at the
fork would stay locked in the child forever).

Results reach the caller one at a time, as they arrive: workers run
ahead, but an inline task starts only when the caller asks for its
result.  A caller that records each result as it comes (the experiment
runner's journal) has thus recorded every task before one that raises.

The tasks run with numpy's bundled OpenBLAS set to one thread, in the
workers (forked from the caller while it is set) and inline alike, and
the caller's setting is restored when the iteration ends: the pool
already puts one worker on every CPU, BLAS threads on top of that only
contend for the same CPUs, and a few matrix products round differently
with more than one thread, so this keeps pooled and inline results
byte-equal.  Where that library is not found, or another thread is
alive (it could be calling BLAS), the setting is left alone.
:func:`one_blas_thread` applies the same setting to code that fits
outside the pool (a direct ``run_task``, the CLI's labelled-pair
commands), so every fit gives the same bits whatever the CPU count.

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

import functools
import multiprocessing
import os
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager, suppress
from pathlib import Path
from typing import Any

from repro import telemetry

__all__ = ["cpu_count", "fork_map", "one_blas_thread"]

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


@functools.cache
def openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """``(get, set)`` of the thread count of the OpenBLAS numpy's wheel
    bundles (``numpy.libs/libscipy_openblas64_*``), or ``None``."""
    import ctypes

    import numpy
    for library in Path(numpy.__file__).parent.parent.glob(
            "numpy.libs/*openblas*"):
        with suppress(OSError, AttributeError):
            # numpy loaded it already, so dlopen returns that same library.
            handle = ctypes.CDLL(str(library))
            get = handle.scipy_openblas_get_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            set_ = handle.scipy_openblas_set_num_threads64_
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """OpenBLAS at one thread inside the block (module docstring); also
    a decorator, for code that fits outside the pool."""
    threads = openblas_threads()
    if threads is None or threading.active_count() > 1:
        yield
        return
    get_threads, set_threads = threads
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


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
             order: Sequence[int] | None = None) -> Iterator:
    """``map(fn, tasks)`` over ``min(workers, len(tasks))`` forked
    workers (module docstring).

    ``order`` is the order tasks are handed to workers (default: task
    order); put the longest first.  With one worker, or where no worker
    can be forked (:func:`_can_fork`), the tasks run inline in task
    order.
    """
    workers = min(workers, len(tasks))
    with one_blas_thread():
        if workers > 1 and _can_fork():
            captured = _forked(fn, tasks, workers, order)
        else:
            captured = (telemetry.run_captured(fn, task) for task in tasks)
        with closing(captured):
            for result, snapshot in captured:
                if snapshot is not None:
                    telemetry.publish_captured(snapshot)
                yield result


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
