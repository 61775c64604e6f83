"""Figure 7: train- vs test-accuracy curves for ETSB-RNN.

The paper's overfitting check: train accuracy approaches 1.0 while test
accuracy converges without collapsing.  Emits both series plus the
best-train-loss epoch markers (the paper's green dots / blue triangles).

Shape checks: final train accuracy is near-perfect and the train/test
gap at the end is bounded -- i.e. the model "performs well and does not
suffer from overfitting" (Section 5.4).
"""

import pytest

from benchmarks.conftest import write_result
from repro.datasets import DATASET_NAMES, load
from repro.experiments import collect_curves, run_experiment


def _curve_settings(scale):
    if scale.full:
        return list(DATASET_NAMES), scale.dataset_rows, 120, scale.n_runs
    return ["hospital", "beers"], lambda name: 80, 25, 3


@pytest.mark.benchmark(group="fig7")
def test_fig7_train_vs_test_accuracy(benchmark, scale):
    datasets, rows_for, epochs, n_runs = _curve_settings(scale)

    def run_all():
        curves = {}
        for name in datasets:
            pair = load(name, n_rows=rows_for(name), seed=1)
            result = run_experiment(
                pair, "etsb", n_runs=n_runs,
                n_label_tuples=scale.n_label_tuples, epochs=epochs,
                track_curves=True)
            curves[name] = collect_curves(result)
        return curves

    curves = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = []
    for name, curve in curves.items():
        lines.append(f"--- {name} / ETSB-RNN ---")
        lines.append("epoch,train_acc_mean,test_acc_mean")
        for train_point, test_point in zip(curve.train, curve.test):
            lines.append(f"{train_point.epoch},{train_point.mean:.4f},"
                         f"{test_point.mean:.4f}")
        lines.append(f"best-train-loss epochs: {list(curve.best_epochs)}")
    write_result("fig7_train_test_accuracy.csv", "\n".join(lines))

    for name, curve in curves.items():
        final_train = curve.train[-1].mean
        final_test = curve.test[-1].mean
        assert final_train > 0.9, f"{name}: train accuracy did not converge"
        assert final_train - final_test < 0.25, \
            f"{name}: train/test gap {final_train - final_test:.2f} too large"
