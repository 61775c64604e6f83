#!/usr/bin/env python3
"""Shoot-out: ETSB-RNN vs the from-scratch Raha-style baseline.

Reproduces the Table 3 comparison on one dataset, from the same 20
labelled tuples per run (DiverSet picks them for both systems): the
BiRNN learns character-level error patterns, the Raha-style detector
clusters strategy verdicts and propagates labels.

    python examples/baseline_shootout.py --dataset hospital
"""

from __future__ import annotations

import argparse

from repro import load_dataset
from repro.experiments import run_experiment
from repro.sampling import DiverSet


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="hospital")
    parser.add_argument("--rows", type=int, default=150)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--runs", type=int, default=2)
    args = parser.parse_args()
    shared = dict(sampler=DiverSet(), n_runs=args.runs, n_label_tuples=20)

    pair = load_dataset(args.dataset, n_rows=args.rows, seed=1)
    print(f"dataset={args.dataset} rows={args.rows} "
          f"error_types={'/'.join(pair.error_types)}\n")

    print("Running the Raha-style baseline "
          "(strategies -> clustering -> label propagation)...")
    raha = run_experiment(pair, "raha", **shared)

    print("Training ETSB-RNN...")
    etsb = run_experiment(pair, "etsb", epochs=args.epochs, **shared)

    print(f"\n{'system':<14} {'P':>6} {'R':>6} {'F1':>6} {'F1 s.d.':>8} "
          f"{'time [s]':>9}")
    for result in (raha, etsb):
        print(f"{result.system:<14} {result.precision.mean:>6.3f} "
              f"{result.recall.mean:>6.3f} {result.f1.mean:>6.3f} "
              f"{result.f1.stdev:>8.3f} {result.train_seconds.mean:>9.1f}")

    print("\nPaper context (full scale, Table 3): Raha F1=0.72 on "
          "hospital, ETSB-RNN F1=0.97; on beers both reach ~0.99.")


if __name__ == "__main__":
    main()
