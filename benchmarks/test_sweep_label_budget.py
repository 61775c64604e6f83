"""Sweep: F1 vs labelling budget (the §5.3 comparison axis).

The paper fixes 20 labelled tuples and criticises Rotom for sweeping 50,
100, 150 and 200 labelled cells and reporting the best.  This bench runs
the honest version of that sweep for ETSB-RNN: F1 at 5, 10, 20 and 40
labelled tuples under otherwise identical settings.

Shape check: F1 is (weakly) increasing in the budget -- more labels
never hurt on average -- and the paper's 20-tuple operating point
already reaches most of the 40-tuple quality (the few-label premise).
"""

import pytest

from benchmarks.conftest import write_result
from repro.datasets import load
from repro.experiments import run_experiment

BUDGETS = (5, 10, 20, 40)


@pytest.mark.benchmark(group="sweep-labels")
def test_sweep_label_budget(benchmark, scale):
    dataset = "hospital"
    pair = load(dataset, n_rows=scale.dataset_rows(dataset), seed=1)

    def run_all():
        return {
            budget: run_experiment(
                pair, "etsb", n_runs=scale.n_runs,
                n_label_tuples=budget, epochs=scale.epochs)
            for budget in BUDGETS
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [f"dataset: {dataset}", "n_label_tuples,F1_mean,F1_sd"]
    for budget in BUDGETS:
        result = results[budget]
        lines.append(f"{budget},{result.f1.mean:.3f},{result.f1.stdev:.3f}")
    write_result("sweep_label_budget.csv", "\n".join(lines))

    f1s = {budget: results[budget].f1.mean for budget in BUDGETS}
    # Weak monotonicity with slack for run noise.
    assert f1s[40] >= f1s[5] - 0.05, f"more labels made things worse: {f1s}"
    # The paper's 20-tuple point captures most of the achievable quality.
    assert f1s[20] >= f1s[40] - 0.15, f"20 tuples far from saturation: {f1s}"
