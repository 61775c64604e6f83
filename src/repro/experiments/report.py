"""EXPERIMENTS.md generation from benchmark result files.

The benchmark suite writes each table/figure's rendering to
``benchmarks/results/``; :func:`generate_report` assembles them into the
EXPERIMENTS.md document (paper-vs-measured for every table and figure),
so the report always reflects the latest benchmark run:

    python -m repro.experiments.report [results_dir] [output_md]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.errors import ExperimentError

#: Section order: (result file, heading, paper context paragraph).
_SECTIONS: tuple[tuple[str, str, str], ...] = (
    ("table2_datasets.txt", "Table 2 — dataset overview",
     "Paper: Beers 2,410x11 @ 0.16, Flights 2,376x7 @ 0.30, Hospital "
     "1,000x20 @ 0.03, Movies 7,390x17 @ 0.06, Rayyan 1,000x10 @ 0.09, "
     "Tax 200,000x15 @ 0.04. The synthetic generators reproduce the "
     "error rates exactly by construction; sizes are scaled down unless "
     "`REPRO_FULL=1`."),
    ("table3_comparison.txt", "Table 3 — P/R/F1 comparison (20 labelled tuples)",
     "Paper rows are quoted verbatim above the measured rows. Shape "
     "checks: ETSB-RNN's cross-dataset average F1 is at least TSB-RNN's; "
     "hospital is among the easiest datasets; flights clearly harder "
     "than hospital."),
    ("table4_averages.txt", "Table 4 — average F1 and standard deviation",
     "Paper: ETSB-RNN 0.91/0.05 without Flights, 0.88/0.06 with. The "
     "measured averages are lower in absolute terms (scaled training) "
     "but preserve the ETSB >= TSB ordering."),
    ("table5_training_time.txt", "Table 5 — training time [s]",
     "Paper times are Colab-GPU seconds; measured times are CPU numpy. "
     "In the paper the enriched model costs a few percent more, and time "
     "scales with attributes x max value length: the GPU Keras model pads "
     "every batch to the longest value. On CPU the fused kernels run "
     "packed sequences, so measured cost follows the live characters of "
     "each batch instead."),
    ("fig6_learning_curves.csv", "Figure 6 — test accuracy during training",
     "Per-epoch mean test accuracy with 95% confidence intervals over "
     "repeated runs, plus the checkpoint-selected best epochs. Both "
     "models improve monotonically modulo noise; ETSB-RNN's final "
     "accuracy is at least TSB-RNN's on the curve datasets."),
    ("fig7_train_test_accuracy.csv", "Figure 7 — train vs test accuracy (ETSB-RNN)",
     "The paper's overfitting check: train accuracy approaches 1.0 "
     "while the train/test gap stays bounded."),
    ("ablation_samplers.csv", "Ablation A — trainset-selection algorithms (§5.2)",
     "The paper reports DiverSet as the best sampler; at reduced scale "
     "the three samplers are close, with DiverSet competitive with the "
     "best."),
    ("ablation_enrichment.csv", "Ablation B — ETSB enrichment (§4.3.2)",
     "Value-only (TSB) vs value+attribute+length (ETSB) on beers."),
    ("ablation_cell_types.csv", "Ablation C — recurrence family (§2)",
     "The related-work claim quantified: the plain tanh RNN trains "
     "several times faster than LSTM/GRU. (At reduced epochs the gated "
     "cells buy some F1; the paper's point is the cost/benefit at its "
     "budget.)"),
    ("analysis_error_types.csv", "Analysis — recall per error type (§5.5)",
     "Character-visible errors (formatting issues, missing-value "
     "markers) are caught at near-perfect recall; violated attribute "
     "dependencies — whose evidence lives in other cells — lag behind, "
     "which is exactly the paper's explanation for the Flights/Tax "
     "scores."),
    ("error_families.txt", "Analysis — authentic-error families (taxonomy matrix)",
     "Each family of the authentic-error taxonomy (keyboard-adjacency "
     "typos, correlated multi-column errors, format/locale drift, "
     "truncation, value swaps, missing markers) injected *alone* at a "
     "10% cell rate into one clean table, with ETSB-RNN, Attn-ED, the "
     "Raha-style baseline and their calibrated ensemble (ETSB + Raha) "
     "trained per pair. Character-visible families "
     "(missing, format drift, truncation) score high; families whose "
     "evidence lives in other cells (value swaps, correlated errors) "
     "collapse for every per-cell system — the causal version of the "
     "§5.5 error-mix analysis. Full matrix with settings: "
     "`BENCH_error_families.json`."),
    ("baselines_comparison.csv", "Baselines — our Raha-style and augmentation detectors",
     "Measured live under the same 20-tuple protocol (Table 3's "
     "published Raha/Rotom rows are from the original papers)."),
    ("fidelity.txt", "Fidelity — paper-vs-measured agreement",
     "Per-dataset F1 gaps against the paper's Table 3 rows and the "
     "Spearman rank correlation of the difficulty ordering (1.0 = the "
     "same datasets are easy/hard as in the paper)."),
    ("sweep_label_budget.csv", "Sweep — F1 vs labelling budget (§5.3)",
     "The honest version of the budget sweep the paper criticises "
     "Rotom for: the 20-tuple operating point captures most of the "
     "achievable quality."),
    ("extension_fusion_repair.csv", "Extension — duplicate fusion + repair (§5.7/§6)",
     "The future-work pipeline on Flights: fusing the BiRNN with "
     "cross-record disagreement signals raises recall; repairs drawn "
     "from record-group majorities are almost always exact."),
)

_HEADER = """# EXPERIMENTS — paper vs measured

Generated from `benchmarks/results/` (run `pytest benchmarks/
--benchmark-only` to refresh; `REPRO_FULL=1` for paper-scale settings).
Absolute numbers are not expected to match the paper — the substrate is
a scaled-down pure-numpy CPU build over synthetic data — but every
table/figure's *shape* (who wins, what is easy/hard, relative cost) is
asserted by the benchmark suite itself.
"""


def generate_report(results_dir: str | Path,
                    output_path: str | Path | None = None) -> str:
    """Assemble the report; optionally write it to ``output_path``."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise ExperimentError(f"no results directory at {results_dir}")
    parts = [_HEADER]
    missing = []
    for filename, heading, context in _SECTIONS:
        path = results_dir / filename
        parts.append(f"\n## {heading}\n")
        parts.append(context + "\n")
        if path.exists():
            parts.append("```\n" + path.read_text().strip() + "\n```\n")
        else:
            missing.append(filename)
            parts.append("*(no result file — benchmark not run yet)*\n")
    if missing:
        parts.append("\n---\nMissing result files: " + ", ".join(missing) + "\n")
    report = "\n".join(parts)
    if output_path is not None:
        Path(output_path).write_text(report)
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI shim: ``python -m repro.experiments.report [dir] [out]``."""
    argv = sys.argv[1:] if argv is None else argv
    results_dir = argv[0] if argv else "benchmarks/results"
    output = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    generate_report(results_dir, output)
    print(f"wrote {output} from {results_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
