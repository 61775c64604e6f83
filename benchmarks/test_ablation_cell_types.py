"""Ablation C: recurrence cell family -- RNN vs LSTM vs GRU.

The related-work section argues plain tanh RNNs are preferable because
they are "less complex and therefore do need not as much time for
training".  This bench makes that claim measurable: identical ETSB
architecture with the recurrence swapped, reporting F1 and training
time per cell family.

Shape checks: the plain RNN trains fastest (fewest parameters), and the
gated cells do not dominate it on F1 at the paper's few-label budget --
i.e. the extra capacity buys nothing here, which is the paper's point.
"""

import pytest

from benchmarks.conftest import write_result
from repro.datasets import load
from repro.experiments import run_experiment
from repro.models import ModelConfig

CELL_TYPES = ("rnn", "lstm", "gru")


@pytest.mark.benchmark(group="ablation-cells")
def test_ablation_cell_types(benchmark, scale):
    dataset = "hospital"
    pair = load(dataset, n_rows=scale.dataset_rows(dataset), seed=1)

    def run_all():
        return {
            cell_type: run_experiment(
                pair, "etsb",
                model_config=ModelConfig(cell_type=cell_type),
                n_runs=scale.n_runs, n_label_tuples=scale.n_label_tuples,
                epochs=scale.epochs)
            for cell_type in CELL_TYPES
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [f"dataset: {dataset}", "cell,F1_mean,F1_sd,train_seconds"]
    for cell_type, result in results.items():
        lines.append(f"{cell_type},{result.f1.mean:.3f},"
                     f"{result.f1.stdev:.3f},{result.train_seconds.mean:.1f}")
    write_result("ablation_cell_types.csv", "\n".join(lines))

    times = {c: results[c].train_seconds.mean for c in CELL_TYPES}
    f1s = {c: results[c].f1.mean for c in CELL_TYPES}
    assert times["rnn"] <= min(times["lstm"], times["gru"]) * 1.1, \
        f"plain RNN should train fastest: {times}"
    best_gated = max(f1s["lstm"], f1s["gru"])
    assert f1s["rnn"] >= best_gated - 0.15, \
        f"plain RNN unexpectedly far behind gated cells: {f1s}"
