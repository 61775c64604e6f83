#!/usr/bin/env python3
"""Compare the three trainset-selection algorithms (Section 4.2).

Runs RandomSet (Algorithm 1), RahaSet (Algorithm 2) and DiverSet
(Algorithm 3) under identical conditions -- each sampler picks the
labelled tuples, then ETSB-RNN trains on them from a fresh generator --
and reports the resulting F1-scores: the experiment behind the paper's
claim that DiverSet's diverse trainsets give the models "the most
information content".

    python examples/sampler_comparison.py --dataset beers --runs 2
"""

from __future__ import annotations

import argparse

from repro import load_dataset
from repro.experiments import run_experiment
from repro.sampling import DiverSet, RahaSet, RandomSet


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="beers")
    parser.add_argument("--rows", type=int, default=150)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--tuples", type=int, default=20)
    args = parser.parse_args()

    pair = load_dataset(args.dataset, n_rows=args.rows, seed=1)
    print(f"dataset={args.dataset} rows={args.rows} "
          f"error_rate={pair.measured_error_rate():.2%}\n")

    print(f"{'sampler':<12} {'F1':>6} {'s.d.':>6} {'P':>6} {'R':>6}")
    for sampler in (RandomSet(), RahaSet(), DiverSet()):
        result = run_experiment(
            pair, "etsb", sampler=sampler,
            n_runs=args.runs, n_label_tuples=args.tuples,
            epochs=args.epochs)
        print(f"{sampler.name:<12} {result.f1.mean:>6.3f} "
              f"{result.f1.stdev:>6.3f} {result.precision.mean:>6.3f} "
              f"{result.recall.mean:>6.3f}")

    print("\n(The paper reports DiverSet as the strongest sampler; at "
          "reduced scale sampler noise is visible -- increase --rows, "
          "--epochs and --runs for a sharper comparison.)")


if __name__ == "__main__":
    main()
