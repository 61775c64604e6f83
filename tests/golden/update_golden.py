"""Regenerate ``golden_metrics.json`` — the committed reference metrics.

Run after any change that intentionally shifts numerics::

    PYTHONPATH=src:. python tests/golden/update_golden.py

The golden cells are deliberately tiny (40 rows, 2 epochs, TINY model)
so the full 6-dataset x 2-architecture grid regenerates in seconds, yet
any unintended change to encoding, initialisation, training order or
inference flips at least one exact metric.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.datasets import DATASET_NAMES, load
from repro.experiments import run_task
from repro.models import ModelConfig, TrainingConfig

GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")

ARCHITECTURES = ("tsb", "etsb", "attn")
#: All golden systems: the neural grid plus the fused ensemble.  The
#: augmentation baseline is deliberately absent -- its hashed n-gram
#: features ride on the per-process ``hash()`` salt, so its metrics are
#: process-local and can never be golden.
SYSTEMS = ARCHITECTURES + ("ensemble",)
N_ROWS = 40
SEED = 0
TINY = ModelConfig(char_embed_dim=6, value_units=8, attr_embed_dim=3,
                   attr_units=3, length_dense_units=6, head_units=8,
                   attn_dim=6)
TRAINING = TrainingConfig(epochs=2)
NEURAL = {"n_label_tuples": 6, "model_config": asdict(TINY),
          "training_config": asdict(TRAINING)}
#: Registry config per golden system; every cell picks its own labelled
#: tuples (DiverSet), as Tables 3-5 do.
CONFIGS = {
    **{arch: NEURAL for arch in ARCHITECTURES},
    "ensemble": {"members": [("etsb", NEURAL), ("raha", {"n_label_tuples": 6})],
                 "n_label_tuples": 6},
}


def compute_cell(dataset: str, system: str) -> dict:
    """Exact held-out metrics for one (dataset, system) cell, computed
    through the experiment runner's one task."""
    pair = load(dataset, n_rows=N_ROWS, seed=SEED)
    return asdict(run_task(system, CONFIGS[system], pair, SEED).report)


def compute_golden() -> dict:
    return {
        "config": {
            "n_rows": N_ROWS, "seed": SEED, "n_label_tuples": 6,
            "epochs": TRAINING.epochs, "model_config": asdict(TINY),
        },
        "metrics": {
            f"{dataset}/{system}": compute_cell(dataset, system)
            for dataset in DATASET_NAMES
            for system in SYSTEMS
        },
    }


def main() -> None:
    golden = compute_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(golden['metrics'])} cells to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
