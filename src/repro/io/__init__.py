"""Real-file ingestion: discovery, messy readers, column analyzers.

The package turns arbitrary folders of real files into
:class:`~repro.table.Table` objects that flow into the existing
``prepare`` -> ``encode_cells`` -> model pipeline:

* :mod:`repro.io.discover` -- recursive folder walking with extension
  and content sniffing (CSV/TSV/SQLite/binary);
* :mod:`repro.io.sniff` -- byte-level encoding detection
  (UTF-8 / UTF-8-BOM / UTF-16 / Latin-1 fallback chain) and CSV
  dialect sniffing (delimiter, quoting, header inference);
* :mod:`repro.io.readers` -- ragged-row-recovering delimited reader
  and SQLite table extraction;
* :mod:`repro.io.analyze` -- per-column type/pattern analyzers (date,
  number with locale, identifier, free text) whose non-conformance
  mask is the weak-label signal for ``repro detect <path>``;
* :mod:`repro.io.ingest` -- the orchestration entry points
  (:func:`~repro.io.ingest.ingest_path`, :func:`~repro.io.ingest.read_file`)
  with ``io.*`` telemetry counters.
"""

from repro.io.analyze import (
    ColumnKind,
    ColumnProfile,
    analyze_column,
    analyze_table,
    conforming_mask,
    skeleton,
)
from repro.io.detect import (
    DetectOutcome,
    detect_path,
    scores_table,
    weak_label_fn,
)
from repro.io.discover import (
    DELIMITED_EXTENSIONS,
    SQLITE_EXTENSIONS,
    DiscoveredFile,
    classify_file,
    discover,
)
from repro.io.ingest import IngestReport, IngestStats, ingest_path, read_file
from repro.io.readers import (
    IngestedTable,
    read_delimited,
    read_delimited_bytes,
    read_sqlite,
)
from repro.io.sniff import (
    Dialect,
    EncodingDetection,
    detect_encoding,
    sniff_dialect,
)

__all__ = [
    "ColumnKind",
    "ColumnProfile",
    "analyze_column",
    "analyze_table",
    "conforming_mask",
    "skeleton",
    "DetectOutcome",
    "detect_path",
    "scores_table",
    "weak_label_fn",
    "DELIMITED_EXTENSIONS",
    "SQLITE_EXTENSIONS",
    "DiscoveredFile",
    "classify_file",
    "discover",
    "IngestReport",
    "IngestStats",
    "ingest_path",
    "read_file",
    "IngestedTable",
    "read_delimited",
    "read_delimited_bytes",
    "read_sqlite",
    "Dialect",
    "EncodingDetection",
    "detect_encoding",
    "sniff_dialect",
]
