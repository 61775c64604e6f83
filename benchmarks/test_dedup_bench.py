"""Dedup-memoized inference benchmark and regression gate.

Times full-table prediction on a duplicate-heavy synthetic table -- the
regime the paper's datasets live in, where categorical attributes repeat
a handful of distinct values over thousands of rows -- with the dedup
fast path versus the naive chunked forward over every row.  The engine
runs the network once per unique (attribute, value) cell and scatters,
so with a low unique-cell ratio the speedup tracks 1/ratio; the gate
requires at least 3x on both compute backends.  A second, ungated arm
reports the warm-cache case, where a repeat call serves every unique
cell from the cross-call prediction cache without any forward at all.

``make bench-dedup`` runs this module alone; medians per arm, speedups,
cache hit rates and the unique-cell ratio are recorded machine-readably
in ``benchmarks/results/BENCH_dedup_infer.json``.
"""

import json
import time

import numpy as np
import pytest

from repro.inference import InferenceEngine, PredictionCache, build_dedup_index
from repro.models import ModelConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.nn import use_backend
from repro.nn.training import predict_proba

from .conftest import write_result

SPEEDUP_GATE = 3.0

#: Duplicate-heavy regime: many rows drawn from a small pool of cells.
N_ROWS = 1200
N_UNIQUE = 48
MAX_LENGTH = 24
N_ATTRS = 6
VOCAB = 40
BATCH_SIZE = 64

CONFIG = ModelConfig(char_embed_dim=16, value_units=32, num_layers=2,
                     attr_embed_dim=8, attr_units=8, length_dense_units=8,
                     head_units=16)


def _duplicate_heavy_table(seed=0):
    """Features whose rows repeat from a pool of ``N_UNIQUE`` cells."""
    rng = np.random.default_rng(seed)
    pool_lengths = rng.integers(2, MAX_LENGTH + 1, size=N_UNIQUE)
    pool_values = np.zeros((N_UNIQUE, MAX_LENGTH), dtype=np.int64)
    for i, ell in enumerate(pool_lengths):
        pool_values[i, :ell] = rng.integers(1, VOCAB, size=ell)
    pool_attrs = rng.integers(1, N_ATTRS + 1, size=N_UNIQUE)
    picks = rng.integers(0, N_UNIQUE, size=N_ROWS)
    features = {
        "values": pool_values[picks],
        "attributes": pool_attrs[picks],
        "length_norm": (pool_lengths[picks] / MAX_LENGTH).reshape(-1, 1),
    }
    return features, pool_lengths[picks].astype(np.int64)


def _median_seconds(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


@pytest.mark.bench_smoke
def test_dedup_predict_speedup_smoke():
    """Gate: dedup-memoized prediction >= 3x naive on both backends.

    Arms are timed in interleaved naive/dedup pairs over identical
    features (the dedup index is precomputed, as ``encode_cells``
    carries it for free in the real pipeline) and compared by the
    median per-pair ratio, so machine-speed drift cancels out.
    """
    features, lengths = _duplicate_heavy_table()
    dedup = build_dedup_index(features)

    report = {
        "benchmark": "dedup-memoized vs naive full-table prediction (ETSB-RNN)",
        "gate_speedup": SPEEDUP_GATE,
        "dataset": {
            "n_rows": N_ROWS,
            "n_unique_cells": int(dedup.n_unique),
            "unique_cell_ratio": round(dedup.unique_ratio, 4),
            "max_length": MAX_LENGTH,
            "batch_size": BATCH_SIZE,
        },
        "backends": {},
    }
    failures = []
    for backend in ("fused", "graph"):
        model = ETSBRNN(VOCAB, N_ATTRS + 1, CONFIG, np.random.default_rng(0))
        model.eval()
        engine = InferenceEngine(model, cache=PredictionCache(),
                                 batch_size=BATCH_SIZE)

        def naive():
            return predict_proba(model, features, batch_size=BATCH_SIZE)

        def dedup_cold():
            engine.cache.invalidate()  # every call re-evaluates uniques
            return engine.predict_proba(features, lengths=lengths,
                                        dedup=dedup)

        def cache_warm():
            return engine.predict_proba(features, lengths=lengths,
                                        dedup=dedup)

        with use_backend(backend):
            # Bit-identity sanity check doubles as the warm-up pass.
            np.testing.assert_array_equal(naive(), dedup_cold())
            cache_warm()
            pairs = [(_median_seconds(naive, repeats=1),
                      _median_seconds(dedup_cold, repeats=1))
                     for _ in range(5)]
            warm_s = _median_seconds(cache_warm)
        ratios = sorted(n / d for n, d in pairs)
        speedup = ratios[len(ratios) // 2]
        naive_ms = sorted(n for n, _ in pairs)[len(pairs) // 2] * 1e3
        dedup_ms = sorted(d for _, d in pairs)[len(pairs) // 2] * 1e3
        stats = engine.last_stats
        report["backends"][backend] = {
            "naive_ms_per_call": round(naive_ms, 3),
            "dedup_ms_per_call": round(dedup_ms, 3),
            "warm_cache_ms_per_call": round(warm_s * 1e3, 3),
            "median_speedup": round(speedup, 2),
            "warm_cache_speedup": round(naive_ms / (warm_s * 1e3), 2),
            "warm_cache_hit_rate": round(stats.hit_rate, 4),
        }
        if speedup < SPEEDUP_GATE:
            failures.append(f"{backend}: {speedup:.2f}x")

    write_result("BENCH_dedup_infer.json", json.dumps(report, indent=2))
    assert not failures, (
        f"dedup inference below the {SPEEDUP_GATE}x gate on: "
        f"{', '.join(failures)} "
        f"(see benchmarks/results/BENCH_dedup_infer.json)"
    )
