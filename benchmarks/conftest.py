"""Shared state for the benchmark suite.

Every table/figure benchmark draws on the same pool of experiment runs so
that, e.g., Table 5's timings come from the very runs that produced
Table 3's F1 scores -- exactly as in the paper.  Results are computed
once per session (they are the expensive part; the benchmark fixture
times representative units of work) and rendered tables are written to
``benchmarks/results/`` as well as printed.

Scaled-down settings are the default; set ``REPRO_FULL=1`` for the
paper-scale configuration (120 epochs x 10 runs x full dataset sizes).
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.datasets import DATASET_NAMES, load
from repro.datasets.base import DatasetPair
from repro.experiments import (
    ExperimentResult,
    current_scale,
    run_experiment,
)
from repro.experiments.scale import ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure next to the benchmarks."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return current_scale()


@pytest.fixture(scope="session")
def pairs(scale) -> dict[str, DatasetPair]:
    """One generated pair per benchmark dataset, at the active scale."""
    return {
        name: load(name, n_rows=scale.dataset_rows(name), seed=1)
        for name in DATASET_NAMES
    }


class ResultPool:
    """Lazily computed, memoised experiment results shared by all benches."""

    def __init__(self, pairs: dict[str, DatasetPair], scale: ExperimentScale):
        self._pairs = pairs
        self._scale = scale

    @functools.lru_cache(maxsize=None)  # noqa: B019 -- session-lifetime object
    def model_result(self, dataset: str, architecture: str,
                     track_curves: bool = False) -> ExperimentResult:
        return run_experiment(
            self._pairs[dataset],
            detector=architecture,
            n_runs=self._scale.n_runs,
            n_label_tuples=self._scale.n_label_tuples,
            epochs=self._scale.epochs,
            track_curves=track_curves,
        )

    @functools.lru_cache(maxsize=None)  # noqa: B019
    def raha_result(self, dataset: str) -> ExperimentResult:
        return run_experiment(
            self._pairs[dataset], "raha",
            n_runs=self._scale.n_runs,
            n_label_tuples=self._scale.n_label_tuples,
        )

    def all_model_results(self) -> list[ExperimentResult]:
        return [
            self.model_result(dataset, architecture)
            for architecture in ("tsb", "etsb")
            for dataset in self._pairs
        ]


@pytest.fixture(scope="session")
def pool(pairs, scale) -> ResultPool:
    return ResultPool(pairs, scale)
