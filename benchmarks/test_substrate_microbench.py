"""Microbenchmarks of the substrates (not a paper table).

Tracks the cost of the hot paths that dominate training and the Raha
baseline: one forward+backward pass of the bidirectional stacked RNN
(on both compute backends, so the fused-vs-graph speedup shows up in the
benchmark table), embedding lookup, the long-format merge of the
preparation pipeline, and the verdict clustering.  Useful for catching
performance regressions in the from-scratch engines.

``test_fused_backend_speedup_smoke`` (marker ``bench_smoke``, run via
``make bench-smoke``) is the regression gate: it fails when the fused RNN
kernels are not at least 2x faster than the graph backend on a training
step, and records the measured speedup to ``benchmarks/results/``.
"""

import time

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.baselines.clustering import agglomerative_clusters
from repro.dataprep import prepare
from repro.datasets import load
from repro.nn import BidirectionalRNN, Dense, Embedding, get_backend, use_backend
from repro.nn.kernels import dense_softmax_bce
from repro.nn.losses import one_hot
from repro.nn import categorical_cross_entropy

from .conftest import write_result


def _paper_sized_step(rng, batch=55, length=24, live=16):
    """A training step of the paper-sized value branch (batch 55).

    Mirrors the models' ``training_loss`` dispatch: on the fused backend
    the classifier head runs through the fused dense+softmax+BCE kernel,
    on the graph backend through the per-op reference composition.
    """
    emb = Embedding(87, 32, rng)
    birnn = BidirectionalRNN(32, 64, rng, num_layers=2)
    head = Dense(128, 2, rng, activation="softmax")
    indices = rng.integers(1, 87, size=(batch, length))
    indices[:, live:] = 0  # padded tail
    labels = one_hot(rng.integers(0, 2, size=batch), 2)
    modules = (emb, birnn, head)

    def step():
        for module in modules:
            module.zero_grad()
        mask = indices != 0
        hidden = birnn(emb(indices), mask=mask)
        if get_backend() == "fused":
            loss = dense_softmax_bce(hidden, head.kernel, head.bias, labels)
        else:
            loss = categorical_cross_entropy(head(hidden), labels)
        loss.backward()
        return loss.item()

    return step


@pytest.mark.benchmark(group="substrate")
@pytest.mark.parametrize("backend", ["fused", "graph"])
def test_birnn_forward_backward(benchmark, backend):
    """One training step of the paper-sized value branch, per backend."""
    step = _paper_sized_step(np.random.default_rng(0))
    with use_backend(backend):
        result = benchmark(step)
    assert np.isfinite(result)


@pytest.mark.bench_smoke
def test_fused_backend_speedup_smoke():
    """Gate: fused kernels must beat the graph backend by >= 2x.

    Backends are timed in interleaved graph/fused pairs and compared by
    the median per-pair ratio, so drift in machine speed (shared CI
    hosts) cancels out instead of polluting the measurement.
    """
    step = _paper_sized_step(np.random.default_rng(0), batch=32, length=20,
                             live=14)

    def seconds(backend, repeats=3):
        with use_backend(backend):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                step()
                best = min(best, time.perf_counter() - start)
        return best

    for backend in ("graph", "fused"):
        with use_backend(backend):
            step()  # warm up (first-call allocations, caches)
    pairs = [(seconds("graph"), seconds("fused")) for _ in range(11)]
    ratios = sorted(g / f for g, f in pairs)
    speedup = ratios[len(ratios) // 2]
    graph_seconds = min(g for g, _ in pairs)
    fused_seconds = min(f for _, f in pairs)
    write_result(
        "backend_speedup.txt",
        "fused-vs-graph TSB-RNN training step (batch 32, 20 steps)\n"
        f"graph backend:  {graph_seconds * 1e3:8.2f} ms (best)\n"
        f"fused backend:  {fused_seconds * 1e3:8.2f} ms (best)\n"
        f"median speedup: {speedup:8.2f}x (gate: >= 2x)",
    )
    assert speedup >= 2.0, (
        f"fused backend only {speedup:.2f}x faster than graph "
        f"(median of {len(pairs)} interleaved pairs; best "
        f"{fused_seconds * 1e3:.2f} ms vs {graph_seconds * 1e3:.2f} ms)"
    )


@pytest.mark.benchmark(group="substrate")
def test_embedding_lookup_large(benchmark):
    rng = np.random.default_rng(0)
    emb = Embedding(136, 32, rng)
    indices = rng.integers(0, 136, size=(256, 128))
    out = benchmark(lambda: emb(indices).numpy().sum())
    assert np.isfinite(out)


@pytest.mark.benchmark(group="substrate")
def test_tensor_matmul_backward(benchmark):
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(128, 64)), requires_grad=True)
    b = Tensor(rng.normal(size=(64, 64)), requires_grad=True)

    def step():
        a.zero_grad()
        b.zero_grad()
        ((a @ b) ** 2).sum().backward()
        return float(a.grad.sum())

    result = benchmark(step)
    assert np.isfinite(result)


@pytest.mark.benchmark(group="substrate")
def test_preparation_pipeline(benchmark):
    """Labels, cell keys and dictionaries on a mid-sized pair."""
    pair = load("beers", n_rows=400, seed=0)
    prepared = benchmark(lambda: prepare(pair.dirty, pair.clean))
    assert prepared.labels.shape == (400 * 11,)


@pytest.mark.benchmark(group="substrate")
def test_verdict_clustering(benchmark):
    rng = np.random.default_rng(0)
    vectors = (rng.random((2000, 8)) < 0.15).astype(float)
    labels = benchmark(lambda: agglomerative_clusters(vectors, 41))
    assert labels.shape == (2000,)
