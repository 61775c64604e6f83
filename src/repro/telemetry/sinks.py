"""Record sinks: where emitted telemetry records go.

A sink receives flat dict records from
:meth:`~repro.telemetry.registry.MetricsRegistry.emit`.  Two
implementations cover the subsystem's uses:

:class:`JsonlSink`
    One JSON object per line, append-mode -- the ``--telemetry-out``
    file format consumed by ``repro telemetry summarize``.
:class:`MemorySink`
    Keeps records in a list; the test suite's sink.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path

import numpy as np


def _json_default(value):
    """Make numpy scalars/arrays JSON-serialisable."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


class Sink:
    """Base sink; subclasses implement :meth:`emit`."""

    def emit(self, record: Mapping) -> None:
        """Receive one flat telemetry record."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""


class MemorySink(Sink):
    """Collects records in :attr:`records` (the testing sink)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: Mapping) -> None:
        self.records.append(dict(record))

    def of_type(self, record_type: str) -> list[dict]:
        """The collected records whose ``type`` field matches."""
        return [r for r in self.records if r.get("type") == record_type]


class JsonlSink(Sink):
    """Append-mode JSON-lines file sink.

    The file is opened lazily on the first record and flushed per line,
    so a crash mid-run still leaves every completed record readable.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = None
        self.n_records = 0

    def emit(self, record: Mapping) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(json.dumps(dict(record), default=_json_default))
        self._file.write("\n")
        self._file.flush()
        self.n_records += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
