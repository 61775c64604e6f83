"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import forkpool
from repro.nn import Trainer
from repro.table import Table


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def people() -> Table:
    """A small wide table with a missing value and mixed types."""
    return Table({
        "name": ["Ada", "Grace", "Alan", "Edsger"],
        "city": ["Zurich", "Rome", "Paris", "Vienna"],
        "age": ["36", "45", "41", None],
    })


@pytest.fixture
def paper_example() -> tuple[Table, Table]:
    """The dirty/clean pair from Table 1 of the paper."""
    dirty = Table({
        "A": ["21", "45", "30", "12", "26"],
        "Sal": ["80,000", "98000", "92000", "99000", "850"],
        "ZIP": ["8000", "00100", "75000", "BER", "75000"],
        "City": ["NaN", "Romr", "Paris", "Berlin", "Vienna"],
    })
    clean = Table({
        "A": ["21", "45", "30", "42", "26"],
        "Sal": ["80000", "98000", "92000", "99000", "85000"],
        "ZIP": ["8000", "00100", "75000", "10115", "1010"],
        "City": ["Zurich", "Rome", "Paris", "Berlin", "Vienna"],
    })
    return dirty, clean


@pytest.fixture
def fit_blas_threads(monkeypatch) -> list[int]:
    """Runs the test with the process at 2 OpenBLAS threads and returns
    the thread count each ``Trainer.fit`` call starts at."""
    threads = forkpool.openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    if threading.active_count() > 1:
        pytest.skip("another thread is alive, so BLAS threads stay as set")
    get_threads, set_threads = threads
    previous = get_threads()
    set_threads(2)
    if get_threads() != 2:
        set_threads(previous)
        pytest.skip("OpenBLAS does not run 2 threads here")
    seen: list[int] = []
    real_fit = Trainer.fit

    def fit(self, *args, **kwargs):
        seen.append(get_threads())
        return real_fit(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "fit", fit)
    yield seen
    after = get_threads()
    set_threads(previous)
    assert after == 2, "the process's setting was not restored"
