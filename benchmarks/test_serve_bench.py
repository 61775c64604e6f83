"""Online-serving load benchmark and regression gates.

A load generator drives the :class:`~repro.serving.ServingDaemon` with 8
simulated concurrent clients (closed loop, every request a distinct
never-seen value, so nothing is served from the dedup index or the
prediction cache).  Three gates:

* **Micro-batching**: coalesced throughput must be >= 3x the
  per-request baseline (``max_batch_rows=1``, same daemon, same load)
  -- the whole point of the request batcher.
* **Incremental re-scoring**: after ``load_table``, a one-cell
  ``update`` must re-run the network on < 5% of the table's feature
  rows, asserted against the engine's ``inference.rows`` telemetry
  counter (not the session's own bookkeeping).
* **Byte identity**: the daemon's flagged cells for a CSV must exactly
  match one-shot ``repro serve`` batch scoring of the same file with
  the same archive -- micro-batching and session state change *when*
  rows are scored, never *what* they score.

Clients call ``ServingDaemon.handle_line`` directly (the same entry the
socket handler threads use), so the measurement isolates the serving
stack from kernel socket noise; arms are interleaved over three rounds
and compared by median ratio so machine-speed drift cancels out.

``make bench-serve`` runs this module alone; latency percentiles,
throughput and the ratios land in ``benchmarks/results/BENCH_serve.json``.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.dataprep import prepare
from repro.models import ErrorDetector, ModelConfig
from repro.models.detector import build_model
from repro.models.serialization import save_detector
from repro.serving import ServingDaemon
from repro.table import Table, read_csv, write_csv

from .conftest import write_result

THROUGHPUT_GATE = 3.0
RESCORE_FRACTION_GATE = 0.05

N_CLIENTS = 8
N_REQUESTS = 50
ROUNDS = 3
BATCH_DELAY_MS = 1.0

#: Narrow-but-deep serving model: the per-step Python dispatch of four
#: stacked recurrent layers is the fixed per-forward cost micro-batching
#: amortises, while 16-unit matmuls keep the marginal row cost low --
#: the regime the batcher is built for.
SERVE_CONFIG = ModelConfig(char_embed_dim=8, value_units=16, num_layers=4,
                           attr_embed_dim=4, attr_units=4,
                           length_dense_units=4, head_units=8)

TABLE_ROWS = 100


def _prepared():
    dirty = Table({
        "A": ["21", "45", "30", "12", "26"],
        "Sal": ["80,000", "98000", "92000", "99000", "850"],
        "ZIP": ["8000", "00100", "75000", "BER", "75000"],
        "City": ["NaN", "Romr", "Paris", "Berlin", "Vienna"],
    })
    clean = Table({
        "A": ["21", "45", "30", "42", "26"],
        "Sal": ["80000", "98000", "92000", "99000", "85000"],
        "ZIP": ["8000", "00100", "75000", "10115", "1010"],
        "City": ["Zurich", "Rome", "Paris", "Berlin", "Vienna"],
    })
    return prepare(dirty, clean)


def _detector(prepared, seed=0):
    detector = ErrorDetector(model_config=SERVE_CONFIG)
    detector.model = build_model("etsb", prepared, SERVE_CONFIG,
                                 np.random.default_rng(seed))
    detector.model.eval()
    detector.prepared = prepared
    return detector


def _score_line(attribute, value):
    return json.dumps({"op": "score", "cells": [
        {"attribute": attribute, "value": value}]}).encode()


def _run_load(daemon, attribute):
    """8 closed-loop clients, unique values throughout; returns stats.

    Values stay short: the encoder clips cells to the dictionary's
    ``max_length`` (6 chars here), and a longer unique suffix would be
    clipped into collisions that the prediction cache then serves
    without touching the network.
    """
    latencies = [[] for _ in range(N_CLIENTS)]
    barrier = threading.Barrier(N_CLIENTS + 1)
    failures = []

    def client(i):
        try:
            daemon.handle_line(_score_line(attribute, f"w{i}"))
            barrier.wait()
            for j in range(N_REQUESTS):
                line = _score_line(attribute, f"u{i}{j:03d}")
                start = time.perf_counter()
                reply = daemon.handle_line(line)
                latencies[i].append(time.perf_counter() - start)
                if not reply.get("ok"):
                    failures.append(reply)
                    return
        except Exception as exc:  # noqa: BLE001 -- surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert not failures, failures
    flat = sorted(x for per_client in latencies for x in per_client)
    n = len(flat)
    return {
        "n_requests": n,
        "wall_s": round(wall, 4),
        "throughput_rps": round(n / wall, 1),
        "p50_ms": round(flat[n // 2] * 1e3, 3),
        "p99_ms": round(flat[min(n - 1, int(n * 0.99))] * 1e3, 3),
    }


def _fresh_daemon(prepared, max_batch_rows=256):
    return ServingDaemon(detector=_detector(prepared),
                         max_batch_rows=max_batch_rows,
                         batch_delay_ms=BATCH_DELAY_MS)


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


@pytest.mark.bench_smoke
def test_serve_bench_gates(tmp_path):
    prepared = _prepared()
    attribute = prepared.attributes[0]
    report = {
        "benchmark": "online scoring daemon "
                     f"({N_CLIENTS} closed-loop clients)",
        "gates": {"microbatch_throughput_x": THROUGHPUT_GATE,
                  "update_rescore_fraction": RESCORE_FRACTION_GATE,
                  "daemon_vs_oneshot": "byte-identical flags"},
        "config": {"n_clients": N_CLIENTS, "n_requests": N_REQUESTS,
                   "rounds": ROUNDS, "batch_delay_ms": BATCH_DELAY_MS},
    }
    failures = []

    # -- arm 1: micro-batched vs per-request throughput ----------------------
    rounds = []
    for _ in range(ROUNDS):
        arms = {}
        for name, max_batch_rows in (("per_request", 1),
                                     ("microbatch", 256)):
            daemon = _fresh_daemon(prepared, max_batch_rows)
            daemon.batcher.start()
            try:
                arms[name] = _run_load(daemon, attribute)
                arms[name]["mean_batch_items"] = round(
                    daemon.batcher.stats.mean_batch_items, 2)
                # Every value was distinct: the arm really measured
                # network forwards, not cache hits.
                cache = daemon.model.cache.stats()
                assert cache["hits"] == 0, cache
            finally:
                daemon.close()
        arms["speedup"] = round(arms["microbatch"]["throughput_rps"]
                                / arms["per_request"]["throughput_rps"], 2)
        rounds.append(arms)
    speedup = _median([r["speedup"] for r in rounds])
    report["throughput"] = {
        "rounds": rounds,
        "median_speedup": speedup,
        "median_per_request_rps": _median(
            [r["per_request"]["throughput_rps"] for r in rounds]),
        "median_microbatch_rps": _median(
            [r["microbatch"]["throughput_rps"] for r in rounds]),
    }
    if speedup < THROUGHPUT_GATE:
        failures.append(f"micro-batch throughput {speedup:.2f}x "
                        f"< {THROUGHPUT_GATE}x per-request")

    # -- arm 2: incremental re-scoring on update -----------------------------
    rng = np.random.default_rng(7)
    table = Table({
        name: [f"{name}-{rng.integers(0, 10 ** 6)}"
               for _ in range(TABLE_ROWS)]
        for name in prepared.attributes
    })
    daemon = _fresh_daemon(prepared)
    daemon.batcher.start()
    metrics = telemetry.MetricsRegistry()
    try:
        with telemetry.use_telemetry(metrics):
            loaded = daemon.handle_line(json.dumps({
                "op": "load_table", "session": "bench",
                "columns": {name: list(table.column(name).values)
                            for name in table.column_names}}).encode())
            assert loaded["ok"], loaded
            rows_before = metrics.counter("inference.rows").value
            update = daemon.handle_line(json.dumps({
                "op": "update", "session": "bench", "row": 3,
                "column": prepared.attributes[1],
                "value": "edited"}).encode())
            assert update["ok"], update
            rows_after = metrics.counter("inference.rows").value
    finally:
        daemon.close()
    n_feature_rows = loaded["n_feature_rows"]
    rescored = rows_after - rows_before
    fraction = rescored / n_feature_rows
    report["incremental_update"] = {
        "n_feature_rows": n_feature_rows,
        "network_rows_for_one_update": rescored,
        "fraction": round(fraction, 5),
        "full_rescore": update["full_rescore"],
    }
    assert rescored >= 1  # the telemetry counter really observed the update
    if fraction >= RESCORE_FRACTION_GATE:
        failures.append(
            f"one-cell update re-ran the network on {rescored}/"
            f"{n_feature_rows} feature rows "
            f"({fraction:.1%} >= {RESCORE_FRACTION_GATE:.0%})")

    # -- arm 3: daemon scores == one-shot `repro serve` ----------------------
    from repro.cli import main

    archive = tmp_path / "serve_bench.npz"
    save_detector(_detector(prepared), archive)
    csv_path = tmp_path / "bench_table.csv"
    write_csv(table, csv_path)
    out_dir = tmp_path / "scored"
    assert main(["serve", "--model", str(archive), str(csv_path),
                 "--out-dir", str(out_dir)]) == 0
    oneshot = read_csv(out_dir / "bench_table.errors.csv")
    oneshot_flagged = {
        (int(row), attribute, value)
        for row, attribute, value in zip(oneshot.column("row").values,
                                         oneshot.column("attribute").values,
                                         oneshot.column("value").values)
    }

    daemon = ServingDaemon(model_path=archive,
                           batch_delay_ms=BATCH_DELAY_MS)
    daemon.batcher.start()
    try:
        loaded = daemon.handle_line(json.dumps({
            "op": "load_table", "session": "identity",
            "csv": str(csv_path)}).encode())
        assert loaded["ok"], loaded
    finally:
        daemon.close()
    daemon_flagged = {(item["row"], item["attribute"], item["value"])
                      for item in loaded["flagged"]}
    report["identity"] = {
        "n_cells": table.n_rows * len(table.column_names),
        "oneshot_flagged": len(oneshot_flagged),
        "daemon_flagged": len(daemon_flagged),
        "identical": daemon_flagged == oneshot_flagged,
    }
    if daemon_flagged != oneshot_flagged:
        failures.append(
            f"daemon flags diverge from one-shot serve: "
            f"{len(daemon_flagged ^ oneshot_flagged)} cells differ")

    write_result("BENCH_serve.json", json.dumps(report, indent=2))
    assert not failures, (
        "serving gates failed: " + "; ".join(failures)
        + " (see benchmarks/results/BENCH_serve.json)")
