"""``detect_path`` scores tables in forked workers, byte for byte.

Pooled and inline runs of ``tests/io/test_detect_path.py``'s folder
must give identical outcomes and the committed ``detect_expected/``
CSVs; failures keep their meaning in both modes (a ``DataError`` gives
analyzer verdicts, any other exception surfaces with its type, a dead
worker's tables are rescored inline); telemetry accounts for every table
once.  The worker count is forced by patching
:func:`repro.forkpool.cpu_count`: 1 runs the tables inline, 2 forks.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import forkpool, telemetry
from repro.io import detect as detect_module
from repro.io import detect_path
from repro.models.serialization import load_detector
from tests.io.test_detect_path import (
    EXPECTED,
    SEED,
    detect_argv,
    run,
    write_folder,
    write_model,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")

#: Tables of the folder that ``write_folder`` writes, in report order.
TABLES = ["beers", "hospital", "single", "warehouse:flights",
          "warehouse:rayyan"]
#: Counters that must not depend on where tables are scored (the
#: engine's ``inference.evaluated`` counts its forward rows).
COUNTERS = ("train.batches", "inference.rows", "inference.evaluated")


class TableFailure(Exception):
    """Raised by a patched table pipeline."""


def scored(folder: Path, workers: int, **kwargs):
    with mock.patch.object(forkpool, "cpu_count", return_value=workers):
        return detect_path(folder, epochs=1, seed=SEED, **kwargs)


@contextmanager
def scoring_pids(root: Path):
    """Record the pid of every process that scores a table; yields a
    callable returning the set of pids seen so far."""
    root.mkdir()
    real = detect_module._score_table

    def spy(item, *args, **kwargs):
        (root / f"{os.getpid()}-{len(list(root.iterdir()))}").touch()
        return real(item, *args, **kwargs)

    with mock.patch.object(detect_module, "_score_table", spy):
        yield lambda: {int(p.name.split("-")[0]) for p in root.iterdir()}


@contextmanager
def captured_telemetry():
    registry = telemetry.MetricsRegistry()
    sink = telemetry.MemorySink()
    registry.add_sink(sink)
    with telemetry.use_telemetry(registry):
        yield registry, sink


def table_spans(records) -> list[str]:
    return sorted(r["table"] for r in records
                  if r.get("type") == "span" and r["name"] == "detect.table")


def assert_same_outcomes(got, want):
    assert [o.table.name for o in got] == [o.table.name for o in want]
    for a, b in zip(got, want):
        assert a.attributes == b.attributes, a.table.name
        for field in ("rows", "columns", "scores", "flags", "conforms"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field
            assert x.tobytes() == y.tobytes(), (a.table.name, field)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool")
    return write_folder(root / "folder"), write_model(root)


@pytest.fixture(scope="module")
def inline(inputs):
    folder, model = inputs
    return {"weak": scored(folder, 1)[1],
            "model": scored(folder, 1, detector=load_detector(model))[1]}


@pytest.mark.equivalence
@pytest.mark.parametrize("mode", ["weak", "model"])
def test_pooled_outcomes_equal_inline(inputs, inline, mode, tmp_path):
    folder, model = inputs
    kwargs = {} if mode == "weak" else {"detector": load_detector(model)}
    with scoring_pids(tmp_path / "pids") as pids:
        _, pooled = scored(folder, 2, **kwargs)
    assert pids() and os.getpid() not in pids()
    assert [o.table.name for o in pooled] == TABLES
    assert_same_outcomes(pooled, inline[mode])


@pytest.mark.equivalence
@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
@pytest.mark.parametrize("name", ["flagged", "model"])
def test_expected_csvs_in_both_modes(inputs, workers, name, tmp_path):
    folder, model = inputs
    out = tmp_path / f"{name}.csv"
    argv = (detect_argv(folder, out) if name == "flagged" else
            ["detect", str(folder), "--model", str(model), "--out", str(out)])
    with mock.patch.object(forkpool, "cpu_count", return_value=workers):
        run(argv)
    assert out.read_bytes() == (EXPECTED / f"{name}.csv").read_bytes()


@pytest.mark.chaos
@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
def test_table_exception_surfaces_with_its_type(inputs, workers):
    folder, _ = inputs
    real = detect_module._score_with_weak_labels

    def failing(item, *args, **kwargs):
        if item.name == "hospital":
            raise TableFailure(f"cannot score {item.name}")
        return real(item, *args, **kwargs)

    with mock.patch.object(detect_module, "_score_with_weak_labels", failing):
        with pytest.raises(TableFailure, match="cannot score hospital"):
            scored(folder, workers)


@pytest.mark.chaos
def test_killed_worker_tables_rescored_inline(inputs, inline):
    folder, _ = inputs
    parent = os.getpid()
    real = detect_module._score_with_weak_labels

    def dying(item, *args, **kwargs):
        if os.getpid() != parent and item.name == "hospital":
            os._exit(3)
        return real(item, *args, **kwargs)

    with mock.patch.object(detect_module, "_score_with_weak_labels", dying), \
            captured_telemetry() as (registry, sink):
        _, pooled = scored(folder, 2)
    assert_same_outcomes(pooled, inline["weak"])
    assert registry.counter("pool.tasks_rerun").value >= 1
    assert table_spans(sink.records) == TABLES


@pytest.mark.chaos
def test_degenerate_table_gets_analyzer_verdicts(tmp_path):
    """Preparation rejects a table with an ``id_`` column (``DataError``):
    that table gets the analyzer's verdicts, laid out column by column,
    in both modes."""
    folder = tmp_path / "folder"
    folder.mkdir()
    (folder / "ids.csv").write_text(
        "id_,city\n1,Zurich\n2,Bern\n3,Basel\n4,B3rn!\n", encoding="utf-8")
    (folder / "cities.csv").write_text(
        "city,zip\nZurich,8000\nBern,3000\nBasel,4000\nGeneva,12O1\n",
        encoding="utf-8")
    runs = [scored(folder, workers)[1] for workers in (1, 2)]
    assert_same_outcomes(runs[1], runs[0])
    ids = next(o for o in runs[0] if o.table.name == "ids")
    assert ids.attributes == ("id_", "city")
    np.testing.assert_array_equal(ids.rows, np.tile(np.arange(4), 2))
    np.testing.assert_array_equal(ids.flags, ~ids.conforms)
    np.testing.assert_array_equal(ids.scores,
                                  np.where(ids.conforms, 0.0, 1.0))


def test_merged_telemetry_matches_inline(inputs):
    folder, _ = inputs
    runs = {}
    for workers in (1, 2):
        with captured_telemetry() as (registry, sink):
            scored(folder, workers)
        runs[workers] = registry, sink
    for name in COUNTERS:
        assert (runs[2][0].counter(name).value
                == runs[1][0].counter(name).value > 0), name
    for _, sink in runs.values():
        assert table_spans(sink.records) == TABLES
    assert (sorted(r["type"] for r in runs[2][1].records)
            == sorted(r["type"] for r in runs[1][1].records))


def test_telemetry_out_accounts_for_every_table(inputs, tmp_path):
    folder, _ = inputs
    path = tmp_path / "telemetry.jsonl"
    argv = detect_argv(folder, tmp_path / "flags.csv") + [
        "--telemetry-out", str(path)]
    with mock.patch.object(forkpool, "cpu_count", return_value=2):
        run(argv)
    records = [json.loads(line) for line in
               path.read_text(encoding="utf-8").splitlines()]
    assert table_spans(records) == TABLES
    counters = records[-1]["metrics"]["counters"]
    assert all(counters[name] > 0 for name in COUNTERS)


@pytest.mark.parametrize("case", ["thread", "one_table"])
def test_runs_inline_without_forking(inputs, case, tmp_path):
    """Another live thread, or a single table, keeps every table in the
    calling process: no pool is created."""
    folder, _ = inputs
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    if case == "one_table":
        folder = tmp_path / "one"
        folder.mkdir()
        (folder / "cities.csv").write_text(
            "city,zip\nZurich,8000\nBern,3000\nGeneva,12O1\n",
            encoding="utf-8")
    else:
        thread.start()
    no_pool = mock.patch.object(forkpool, "ProcessPoolExecutor",
                                side_effect=AssertionError("forked"))
    try:
        with no_pool, scoring_pids(tmp_path / "pids") as pids:
            _, outcomes = scored(folder, 2)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert outcomes and pids() == {os.getpid()}

