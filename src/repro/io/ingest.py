"""Folder-to-tables orchestration: discover, read, profile, count.

:func:`ingest_path` is the one call behind ``repro detect <path>`` and
the serving daemon's ``load_table {"path": ...}``: it discovers files,
routes each to the right reader, profiles every recovered table's
columns, and accumulates an :class:`IngestStats` that is also mirrored
into the ``io.*`` telemetry counters:

* ``io.files_discovered`` / ``io.files_parsed`` / ``io.files_skipped``
* ``io.encoding_fallbacks`` -- fallback-chain steps taken past UTF-8
* ``io.rows_recovered`` -- ragged rows padded or folded
* ``io.tables_ingested`` -- tables recovered (SQLite files may yield
  several)

A file that fails to parse is recorded as skipped with its reason --
one bad file never aborts a folder.

Files are read and profiled in forked workers
(:func:`repro.forkpool.fork_map`), one task per file, the largest files
first; the results are merged in discovery order, so the report is the
one a file-by-file pass gives.  Each task is an ``io.read`` span
followed by an ``io.analyze`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro import forkpool, telemetry
from repro.errors import IngestError
from repro.io.analyze import ColumnProfile, analyze_table
from repro.io.discover import DiscoveredFile, discover
from repro.io.readers import IngestedTable, read_delimited, read_sqlite


@dataclass(frozen=True)
class IngestStats:
    """Counters for one ingestion pass (mirrored into telemetry)."""

    files_discovered: int = 0
    files_parsed: int = 0
    files_skipped: int = 0
    encoding_fallbacks: int = 0
    rows_recovered: int = 0
    tables_ingested: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stable key order for reports)."""
        return {
            "files_discovered": self.files_discovered,
            "files_parsed": self.files_parsed,
            "files_skipped": self.files_skipped,
            "encoding_fallbacks": self.encoding_fallbacks,
            "rows_recovered": self.rows_recovered,
            "tables_ingested": self.tables_ingested,
        }


@dataclass(frozen=True)
class IngestReport:
    """Everything one ingestion pass recovered.

    Attributes
    ----------
    tables:
        The recovered tables, in discovery order.
    profiles:
        Per-table column profiles, keyed like ``tables`` by table name.
    skipped:
        ``(path, reason)`` for every file not ingested.
    stats:
        The aggregate counters.
    """

    tables: tuple[IngestedTable, ...]
    profiles: dict[str, dict[str, ColumnProfile]]
    skipped: tuple[tuple[Path, str], ...] = ()
    stats: IngestStats = field(default_factory=IngestStats)

    def table(self, name: str) -> IngestedTable:
        """Look up one ingested table by name."""
        for entry in self.tables:
            if entry.name == name:
                return entry
        raise IngestError(
            f"no ingested table {name!r}; "
            f"available: {[t.name for t in self.tables]}")


def _emit_telemetry(stats: IngestStats) -> None:
    if not telemetry.enabled():
        return
    registry = telemetry.get_registry()
    registry.counter("io.files_discovered").inc(stats.files_discovered)
    registry.counter("io.files_parsed").inc(stats.files_parsed)
    registry.counter("io.files_skipped").inc(stats.files_skipped)
    registry.counter("io.encoding_fallbacks").inc(stats.encoding_fallbacks)
    registry.counter("io.rows_recovered").inc(stats.rows_recovered)
    registry.counter("io.tables_ingested").inc(stats.tables_ingested)


def read_file(path: str | Path,
              table_names: list[str] | None = None) -> list[IngestedTable]:
    """Read one file (delimited or SQLite) into ingested tables.

    Raises
    ------
    IngestError
        When the file is skipped by classification or fails to parse.
    """
    path = Path(path)
    entry = discover(path)[0]
    if entry.kind == "skipped":
        raise IngestError(f"{path}: {entry.reason}")
    if entry.kind == "sqlite":
        return read_sqlite(path, table_names=table_names)
    return [read_delimited(path)]


def _read_profiled(entry: DiscoveredFile) -> tuple[
        list[IngestedTable], list[dict[str, ColumnProfile]]] | str:
    """One ingestion task: a file's tables and their column profiles, or
    the reason the file is skipped."""
    try:
        with telemetry.span("io.read", file=str(entry.path)):
            if entry.kind == "sqlite":
                ingested = read_sqlite(entry.path)
            else:
                ingested = [read_delimited(entry.path)]
    except IngestError as exc:
        return str(exc)
    with telemetry.span("io.analyze", file=str(entry.path)):
        return ingested, [analyze_table(item.table) for item in ingested]


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def ingest_path(path: str | Path) -> IngestReport:
    """Ingest a file or a whole folder tree (see module docstring)."""
    discovered = discover(path)
    readable = [entry for entry in discovered if entry.kind != "skipped"]
    sizes = [_file_size(entry.path) for entry in readable]
    largest_first = sorted(range(len(readable)), key=lambda i: -sizes[i])
    results = iter(list(forkpool.fork_map(_read_profiled, readable,
                                          forkpool.cpu_count(),
                                          order=largest_first)))
    tables: list[IngestedTable] = []
    profiles: dict[str, dict[str, ColumnProfile]] = {}
    skipped: list[tuple[Path, str]] = []
    for entry in discovered:
        result = entry.reason if entry.kind == "skipped" else next(results)
        if isinstance(result, str):
            skipped.append((entry.path, result))
            continue
        for item, profile in zip(*result):
            tables.append(item)
            profiles[item.name] = profile
    parsed_paths = {t.source for t in tables}
    stats = IngestStats(
        files_discovered=len(discovered),
        files_parsed=len(parsed_paths),
        files_skipped=len(skipped),
        encoding_fallbacks=sum(t.n_encoding_fallbacks for t in tables),
        rows_recovered=sum(t.n_recovered_rows for t in tables),
        tables_ingested=len(tables),
    )
    _emit_telemetry(stats)
    return IngestReport(tables=tuple(tables), profiles=profiles,
                        skipped=tuple(skipped), stats=stats)
