"""Grad mode is per thread.

``no_grad`` switches graph recording off in the calling thread only:
a thread that scores under ``no_grad`` must not stop another thread's
graph, and interleaved blocks in two threads each restore their own
thread's state.  The threads are stepped in a fixed order with
barriers, so the interleaving is the same on every run.
"""

import sys
import threading

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import grad_enabled


def run_threads(*targets):
    """Run each target in its own thread; re-raise the first failure."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_no_grad_in_one_thread_leaves_another_recording():
    barrier = threading.Barrier(2, timeout=10)
    seen = {}

    def scorer():
        with no_grad():
            barrier.wait()      # inside no_grad while the trainer runs
            barrier.wait()

    def trainer():
        barrier.wait()
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * 3.0).sum()
        seen["enabled"] = grad_enabled()
        seen["records"] = loss.requires_grad
        loss.backward()
        seen["grad"] = x.grad.copy()
        barrier.wait()

    run_threads(scorer, trainer)
    assert seen["enabled"] and seen["records"]
    np.testing.assert_array_equal(seen["grad"], [3.0, 3.0])


def test_interleaved_blocks_restore_their_own_state():
    """First enters, second enters, first leaves, second leaves: with one
    shared flag, the second would see recording switched back on inside
    its block, and both would end with it off."""
    barrier = threading.Barrier(2, timeout=10)
    seen = {}

    def first():
        with no_grad():
            barrier.wait()      # 1: both inside
        barrier.wait()          # 2: first has left
        seen["first_after"] = grad_enabled()
        barrier.wait()          # 3: second has left

    def second():
        with no_grad():
            barrier.wait()      # 1
            barrier.wait()      # 2
            seen["second_inside"] = grad_enabled()
            seen["second_records"] = (
                Tensor([1.0], requires_grad=True) * 2.0).requires_grad
        barrier.wait()          # 3
        seen["second_after"] = grad_enabled()

    run_threads(first, second)
    assert seen == {"first_after": True, "second_inside": False,
                    "second_records": False, "second_after": True}
    assert grad_enabled()


def test_new_thread_starts_with_grad_enabled():
    seen = []
    with no_grad():
        run_threads(lambda: seen.append(grad_enabled()))
        assert not grad_enabled()
    assert seen == [True]
    assert grad_enabled()


def test_many_threads_toggling_each_see_their_own_state():
    """More threads than cores enter and leave ``no_grad`` with a tiny
    switch interval; every check of a thread's own state must hold."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def toggle():
            for _ in range(2000):
                assert grad_enabled()
                with no_grad():
                    assert not grad_enabled()
                assert grad_enabled()

        run_threads(*[toggle] * 8)
    finally:
        sys.setswitchinterval(previous)
    assert grad_enabled()
