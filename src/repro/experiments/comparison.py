"""Cross-detector comparison under one shared labelled-tuples budget.

The registry (:mod:`repro.detectors`) makes every family scoreable the
same way, so this module runs them side by side under the strictest
protocol: per run seed, *one* DiverSet labelled-row set is drawn and
pinned for every detector (:func:`~repro.experiments.runner.run_task`
with ``sampler=DiverSet()``), and metrics are computed on all cells of
the non-labelled tuples.  Because the ensemble's raw-member candidates
fit on the same rows, an ensemble that arbitrates to a lone raw member
reproduces that member's row byte for byte -- differences in the table
are attributable to fusion, never to sampling noise.
"""

from __future__ import annotations

from repro.datasets.base import DatasetPair
from repro.experiments.runner import (
    ExperimentResult,
    detector_config,
    run_grid,
)
from repro.sampling import DiverSet


def run_detector_comparison(pair: DatasetPair,
                            detectors: tuple[str, ...] = ("etsb", "raha",
                                                          "ensemble"),
                            n_runs: int = 3, n_label_tuples: int = 20,
                            epochs: int | None = None,
                            base_seed: int = 0,
                            **durability) -> dict[str, ExperimentResult]:
    """Run every named detector over shared labelled rows, per seed.

    Parameters
    ----------
    detectors:
        Registry names (see :func:`repro.detectors.list_detectors`).
    epochs:
        Threaded into every neural detector (and the ensemble's neural
        members); ``None`` keeps their default.
    base_seed:
        Run ``i`` uses seed ``base_seed + i`` for sampling and fitting.
    durability:
        :func:`~repro.experiments.runner.run_experiment`'s knobs
        (``n_workers``, ``max_retries``, ``journal_path``, ...); one
        journal holds the whole comparison.
    """
    training = None if epochs is None else {"epochs": epochs}
    specs = {name: detector_config(name, n_label_tuples, training)
             for name in detectors}
    results = run_grid(specs, [pair], n_runs, base_seed, DiverSet(),
                       **durability)
    return {name: result for (name, _), result in results.items()}


def render_comparison(results: dict[str, ExperimentResult]) -> str:
    """Fixed-width text table, one row per detector."""
    header = (f"{'detector':<10} {'system':<16} {'P':>6} {'R':>6} "
              f"{'F1':>6} {'F1 sd':>6} {'sec':>7}")
    lines = [header, "-" * len(header)]
    for name, result in results.items():
        row = result.as_row()
        lines.append(
            f"{name:<10} {result.system:<16} {row['P']:>6.3f} "
            f"{row['R']:>6.3f} {row['F1']:>6.3f} {row['F1_sd']:>6.3f} "
            f"{row['seconds']:>7.2f}")
    return "\n".join(lines)
