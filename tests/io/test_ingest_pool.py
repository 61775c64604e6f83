"""``ingest_path`` reads and profiles files in forked workers, and
``detect_path`` hands tables out costliest first.

Pooled and inline ingestion must give equal reports -- tables, column
profiles (with the analysis's verdicts), skips in discovery order with
their reasons, stats and ``io.*`` counters -- on the repository's
ingestion corpus and on ``tests/io/test_detect_path.py``'s folder with
a file that fails to parse added.  Failures keep their meaning in both
modes, the order tables are handed out in never changes an outcome, and
the per-stage spans appear once per file or table.  The worker count is
forced by patching :func:`repro.forkpool.cpu_count`: 1 runs inline,
2 forks.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from repro import forkpool, telemetry
from repro.errors import IngestError
from repro.io import detect_path, ingest_path
from repro.io import ingest as ingest_module
from repro.telemetry import spans as spans_module
from tests.io.test_detect_pool import assert_same_outcomes, captured_telemetry
from tests.io.test_detect_path import SEED, write_folder

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")

CORPUS = Path(__file__).with_name("corpus")
#: The ``io.*`` counters ``ingest_path`` publishes.
IO_COUNTERS = ("io.files_discovered", "io.files_parsed", "io.files_skipped",
               "io.encoding_fallbacks", "io.rows_recovered",
               "io.tables_ingested")
#: Spans each weak-label table's scoring emits inside ``detect.table``.
TABLE_STAGES = ("dataprep.prepare", "dataprep.encode", "sampling.select",
                "inference.predict")


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """Two delimited tables, a two-table SQLite file, a one-row table, a
    binary junk file and a truncated SQLite file that fails to parse."""
    root = write_folder(tmp_path_factory.mktemp("ingest") / "folder")
    shutil.copy(CORPUS / "truncated.sqlite", root / "broken.sqlite")
    return root


def ingested(path: Path, workers: int):
    with mock.patch.object(forkpool, "cpu_count", return_value=workers):
        return ingest_path(path)


@contextmanager
def reading_pids(root: Path):
    """Record the pid of every process that reads a delimited file;
    yields a callable returning the set of pids seen so far."""
    root.mkdir()
    real = ingest_module.read_delimited

    def spy(path, *args, **kwargs):
        (root / f"{os.getpid()}-{Path(path).name}").touch()
        return real(path, *args, **kwargs)

    with mock.patch.object(ingest_module, "read_delimited", spy):
        yield lambda: {int(p.name.split("-")[0]) for p in root.iterdir()}


def assert_same_report(got, want):
    assert [t.name for t in got.tables] == [t.name for t in want.tables]
    for a, b in zip(got.tables, want.tables):
        # Name, cells, source, encoding, surgery counts and dialect.
        assert a == b, a.name
        assert a.table.column_names == b.table.column_names
    assert list(got.profiles) == list(want.profiles)
    for name, profiles in got.profiles.items():
        assert profiles == want.profiles[name], name
        for column, profile in profiles.items():
            assert profile.verdicts == want.profiles[name][column].verdicts
    assert got.skipped == want.skipped
    assert got.stats == want.stats


@pytest.mark.equivalence
@pytest.mark.parametrize("source", ["corpus", "folder"])
def test_pooled_report_equals_inline(source, folder, tmp_path):
    path = CORPUS if source == "corpus" else folder
    runs = {}
    for workers in (1, 2):
        with captured_telemetry() as (registry, _):
            with reading_pids(tmp_path / f"pids-{workers}") as pids:
                runs[workers] = ingested(path, workers)
        runs[workers] = runs[workers], registry, pids()
    (inline, inline_registry, inline_pids), (pooled, registry, pooled_pids) = \
        runs[1], runs[2]
    assert inline_pids == {os.getpid()}
    assert pooled_pids and os.getpid() not in pooled_pids
    assert_same_report(pooled, inline)
    assert pooled.skipped and pooled.tables
    for name in IO_COUNTERS:
        assert (registry.counter(name).value
                == inline_registry.counter(name).value), name


def test_skips_keep_discovery_order_and_reasons(folder):
    report = ingested(folder, 2)
    assert [(path.name, reason.split(":")[0]) for path, reason
            in report.skipped] == [
        ("backup_2019.csv", "binary content"),
        ("broken.sqlite", str(folder / "broken.sqlite"))]
    assert [t.name for t in report.tables] == [
        "beers", "hospital", "single", "warehouse:flights",
        "warehouse:rayyan"]


@pytest.mark.chaos
@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
def test_ingest_error_in_a_task_is_a_skip(folder, workers):
    real = ingest_module.read_delimited

    def failing(path, *args, **kwargs):
        if Path(path).name == "hospital.tsv":
            raise IngestError(f"{path}: cannot decode")
        return real(path, *args, **kwargs)

    with mock.patch.object(ingest_module, "read_delimited", failing):
        report = ingested(folder, workers)
    assert (folder / "hospital.tsv",
            f"{folder / 'hospital.tsv'}: cannot decode") in report.skipped
    assert "hospital" not in [t.name for t in report.tables]
    assert report.stats.files_skipped == 3


@pytest.mark.chaos
def test_killed_worker_files_reread_inline(folder):
    inline = ingested(folder, 1)
    parent = os.getpid()
    real = ingest_module.read_delimited

    def dying(path, *args, **kwargs):
        if os.getpid() != parent and Path(path).name == "beers.csv":
            os._exit(3)
        return real(path, *args, **kwargs)

    with mock.patch.object(ingest_module, "read_delimited", dying), \
            captured_telemetry() as (registry, sink):
        pooled = ingested(folder, 2)
    assert_same_report(pooled, inline)
    assert registry.counter("pool.tasks_rerun").value >= 1
    reads = sorted(Path(r["file"]).name for r in sink.records
                   if r.get("type") == "span" and r["name"] == "io.read")
    assert reads == ["beers.csv", "broken.sqlite", "hospital.tsv",
                     "single.csv", "warehouse.sqlite"]


# -- the table pool's hand-out order ---------------------------------------------


@pytest.fixture(scope="module")
def inline_outcomes(folder):
    with mock.patch.object(forkpool, "cpu_count", return_value=1):
        return detect_path(folder, epochs=1, seed=SEED)[1]


def test_tables_handed_out_by_characters(folder):
    orders = []
    real = forkpool.fork_map

    def spy(fn, tasks, workers, order=None):
        orders.append(order)
        return real(fn, tasks, workers, order=order)

    with mock.patch.object(forkpool, "cpu_count", return_value=2), \
            mock.patch.object(forkpool, "fork_map", spy):
        report, _ = detect_path(folder, epochs=1, seed=SEED)
    chars = [sum(len(value or "") for name in t.table.column_names
                 for value in t.table.column(name).values)
             for t in report.tables]
    assert orders[-1] == sorted(range(len(chars)), key=lambda i: -chars[i])
    # Characters, not cells: rayyan (40 x 10) has fewer cells than
    # beers (60 x 11) but more characters.
    names = [report.tables[i].name for i in orders[-1]]
    assert names.index("warehouse:rayyan") < names.index("beers")


@pytest.mark.equivalence
def test_outcomes_do_not_depend_on_the_hand_out_order(folder,
                                                      inline_outcomes):
    real = forkpool.fork_map

    def reversed_order(fn, tasks, workers, order=None):
        order = range(len(tasks)) if order is None else order
        return real(fn, tasks, workers, order=list(order)[::-1])

    with mock.patch.object(forkpool, "cpu_count", return_value=2), \
            mock.patch.object(forkpool, "fork_map", reversed_order):
        _, outcomes = detect_path(folder, epochs=1, seed=SEED)
    assert_same_outcomes(outcomes, inline_outcomes)


# -- spans -------------------------------------------------------------------------


def span_records(sink) -> list[tuple]:
    return [(r["name"], r["parent"], r.get("table"),
             Path(r["file"]).name if "file" in r else None)
            for r in sink.records if r.get("type") == "span"]


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
def test_stage_spans_once_per_file_and_table(folder, workers):
    with captured_telemetry() as (_, sink), \
            mock.patch.object(forkpool, "cpu_count", return_value=workers):
        report, _ = detect_path(folder, epochs=1, seed=SEED)
    spans = span_records(sink)
    files = ["beers.csv", "broken.sqlite", "hospital.tsv", "single.csv",
             "warehouse.sqlite"]
    assert sorted(f for name, _, _, f in spans if name == "io.read") == files
    # The broken file is skipped after its read.
    assert sorted(f for name, _, _, f in spans if name == "io.analyze") == [
        f for f in files if f != "broken.sqlite"]
    trained = [t.name for t in report.tables if t.table.n_rows >= 2]
    for stage in TABLE_STAGES:
        within = [(parent, table) for name, parent, table, _ in spans
                  if name == stage]
        assert len(within) == len(trained), stage
        assert {parent for parent, _ in within} == {"detect.table"}, stage
    tables = [table for name, _, table, _ in spans if name == "detect.table"]
    assert sorted(tables) == sorted(t.name for t in report.tables)


def test_pooled_spans_published_in_task_order(folder):
    runs = []
    for workers in (1, 2):
        with captured_telemetry() as (_, sink), \
                mock.patch.object(forkpool, "cpu_count",
                                  return_value=workers):
            detect_path(folder, epochs=1, seed=SEED)
        runs.append(span_records(sink))
    assert runs[1] == runs[0]


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
def test_spans_cost_nothing_with_telemetry_off(folder, workers):
    """With telemetry off no span object is built, in the parent or in
    a worker (the patch is inherited by the fork)."""
    built = mock.Mock(side_effect=AssertionError("span built"))
    with telemetry.use_telemetry(on=False), \
            mock.patch.object(spans_module, "Span", built), \
            mock.patch.object(forkpool, "cpu_count", return_value=workers):
        _, outcomes = detect_path(folder, epochs=1, seed=SEED)
    assert outcomes and not built.called
