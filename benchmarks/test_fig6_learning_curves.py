"""Figure 6: test-accuracy learning curves, TSB-RNN vs ETSB-RNN.

Tracks per-epoch test accuracy over repeated runs (with confidence
intervals) and the checkpoint-selected best epochs, then emits the
series the paper plots.  Tracking costs one evaluation pass per epoch,
so this benchmark uses a reduced setting unless ``REPRO_FULL=1``.

Shape checks: accuracy improves over training for both models, and on
the curve datasets ETSB-RNN's final accuracy is at least TSB-RNN's
(Figure 6's visual takeaway; Tax is the paper's exception and is only
exercised in full mode).
"""

import pytest

from benchmarks.conftest import write_result
from repro.datasets import DATASET_NAMES, load
from repro.experiments import collect_curves, run_experiment
from repro.experiments.curves import render_curve


def _curve_settings(scale):
    if scale.full:
        return list(DATASET_NAMES), scale.dataset_rows, 120, scale.n_runs
    return ["hospital", "flights"], lambda name: 80, 25, 3


@pytest.mark.benchmark(group="fig6")
def test_fig6_learning_curves(benchmark, scale):
    datasets, rows_for, epochs, n_runs = _curve_settings(scale)

    def run_all():
        curves = {}
        for name in datasets:
            pair = load(name, n_rows=rows_for(name), seed=1)
            for architecture in ("tsb", "etsb"):
                result = run_experiment(
                    pair, architecture, n_runs=n_runs,
                    n_label_tuples=scale.n_label_tuples, epochs=epochs,
                    track_curves=True)
                curves[(name, architecture)] = collect_curves(result)
        return curves

    curves = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = []
    for (name, architecture), curve in curves.items():
        lines.append(f"--- {name} / {architecture.upper()} ---")
        lines.append(render_curve(curve, "test"))
        lines.append("epoch,test_acc_mean,ci_low,ci_high")
        for point in curve.test:
            lines.append(f"{point.epoch},{point.mean:.4f},"
                         f"{point.ci_low:.4f},{point.ci_high:.4f}")
        lines.append(f"best epochs per run: {list(curve.best_epochs)}")
    write_result("fig6_learning_curves.csv", "\n".join(lines))

    for (name, architecture), curve in curves.items():
        first = curve.test[0].mean
        best = max(p.mean for p in curve.test)
        assert best >= first - 1e-9, f"{name}/{architecture} never improved"
    for name in datasets:
        etsb = curves[(name, "etsb")].final_test_accuracy()
        tsb = curves[(name, "tsb")].final_test_accuracy()
        assert etsb >= tsb - 0.05, f"{name}: ETSB {etsb} far below TSB {tsb}"
