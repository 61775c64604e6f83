"""Fitting and scoring a table never import ``numpy.ma``.

A plain ``np.unique(x)`` calls ``np.ma.is_masked``, which imports
``numpy.ma`` on first use (about 20 ms).  A ``repro detect`` worker is
forked from a parent that never scored, so it would pay that import in
its first prefix-shared scoring call.  The check runs in a fresh
interpreter, where nothing has imported ``numpy.ma`` yet.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys

import numpy as np

from repro.dataprep import encode_cells, prepare
from repro.datasets import load
from repro.inference import InferenceEngine
from repro.metrics import ClassificationReport
from repro.models import ErrorDetector, ModelConfig, TrainingConfig, build_model

assert "numpy.ma" not in sys.modules, "imported with repro"
table = load("beers", n_rows=30, seed=0).dirty
# A weak-label fit, as repro detect runs one per table: prepare,
# DiverSet, encoding and training.
ErrorDetector(n_label_tuples=5, training_config=TrainingConfig(epochs=1)
              ).fit_with_labels(table, lambda tid, row: [0] * len(row))
prepared = prepare(table, table)
cells = encode_cells(prepared)
for architecture in ("etsb", "attn"):
    model = build_model(architecture, prepared, ModelConfig(),
                        np.random.default_rng(0))
    model.eval()
    # More representatives than one chunk: etsb scores through
    # distinct_value_states, attn through its length groups.
    probabilities = InferenceEngine(model, batch_size=8).predict_proba(
        cells.features, lengths=cells.lengths, dedup=cells.dedup)
    ClassificationReport.from_predictions(
        cells.labels, (probabilities[:, 1] >= 0.5).astype(np.int64))
print("numpy.ma" in sys.modules)
"""


def test_fit_and_scoring_do_not_import_numpy_ma():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
