"""The fork-pool helper: results in task order whatever the dispatch
order, each inline task run only when its result is asked for, and no
output duplicated by the forked workers."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import forkpool

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")


@pytest.mark.parametrize("order", [None, [3, 1, 0, 2]])
def test_results_in_task_order(order):
    parent = os.getpid()
    got = list(forkpool.fork_map(lambda task: (task * task, os.getpid()),
                                 [1, 2, 3, 4], 2, order=order))
    assert [square for square, _ in got] == [1, 4, 9, 16]
    assert parent not in {pid for _, pid in got}


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
def test_tasks_run_one_blas_thread(workers):
    if forkpool.openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get_threads = forkpool.openblas_threads()[0]
    before = get_threads()
    got = list(forkpool.fork_map(lambda _: get_threads(), [0, 1], workers))
    assert got == [1, 1]
    assert get_threads() == before


def test_one_worker_starts_each_task_after_the_last_result_is_consumed():
    """The experiment runner journals each result before the next task
    starts, so a killed sweep has journalled every task before it."""
    events = []

    def task(index):
        events.append(("start", index))
        return index

    for result in forkpool.fork_map(task, [0, 1, 2], 1):
        events.append(("consumed", result))
    assert events == [("start", 0), ("consumed", 0), ("start", 1),
                      ("consumed", 1), ("start", 2), ("consumed", 2)]


def test_output_pending_before_the_fork_is_written_once():
    """A forked child flushes the stdio buffers it inherited when it
    exits; the pool flushes them before forking."""
    script = ("import sys\n"
              "from repro import forkpool\n"
              "sys.stdout.write('pending ')\n"
              "sys.stderr.write('pending ')\n"
              "print(list(forkpool.fork_map(abs, [-1, -2, -3], 2)))\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "pending [1, 2, 3]\n"
    assert done.stderr == "pending "
