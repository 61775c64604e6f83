"""The completed-task journal backing durable experiment runs.

A :class:`TaskJournal` is an append-only JSONL file: one header line
carrying a fingerprint of the experiment configuration, then one line
per completed task holding its key and full :class:`RunResult`.  A
re-invoked matrix (``--resume``) opens the same journal, verifies the
fingerprint, and skips every task already recorded -- so a sweep killed
at task *k* re-runs only tasks ``k..n``, and the aggregated
:class:`~repro.experiments.runner.ExperimentResult` equals the
failure-free run's.

Appends are flushed and fsynced per line: a crash mid-append loses at
most the line being written, and the loader ignores a torn trailing
line, so the journal itself is crash-safe.
"""

from __future__ import annotations

import json
import os

from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.experiments.runner import RunResult

_FORMAT = "repro-task-journal"
_VERSION = 1


def task_key(detector: str, dataset: str, seed: int) -> str:
    """The journal key of one (detector, dataset, seed) task."""
    return f"{detector}:{dataset}:{seed}"


def run_result_to_json(result: "RunResult") -> dict:
    """A JSON-able dict that :func:`run_result_from_json` inverts.

    The telemetry snapshot is kept only when it serialises cleanly; a
    journal must never fail an experiment over a diagnostics payload.
    """
    from dataclasses import asdict

    payload = asdict(result)
    payload["train_accuracy_curve"] = list(result.train_accuracy_curve)
    payload["test_accuracy_curve"] = list(result.test_accuracy_curve)
    if payload.get("telemetry") is not None:
        try:
            json.dumps(payload["telemetry"])
        except (TypeError, ValueError):
            payload["telemetry"] = None
    return payload


def run_result_from_json(payload: dict) -> "RunResult":
    """Rebuild a :class:`RunResult` journalled by :func:`run_result_to_json`."""
    from repro.experiments.runner import RunResult
    from repro.metrics import ClassificationReport

    data = dict(payload)
    data["report"] = ClassificationReport(**data["report"])
    data["train_accuracy_curve"] = tuple(data.get("train_accuracy_curve", ()))
    data["test_accuracy_curve"] = tuple(data.get("test_accuracy_curve", ()))
    return RunResult(**data)


class TaskJournal:
    """Append-only JSONL record of completed experiment tasks.

    Parameters
    ----------
    path:
        The journal file.  Created (with its header) on the first
        :meth:`record`; a missing file loads as an empty journal.
    fingerprint:
        JSON-able description of the experiment configuration.  A journal
        written under a different fingerprint refuses to load: silently
        reusing results from a different configuration would corrupt the
        aggregate, so the mismatch is an explicit error.
    """

    def __init__(self, path: str | Path, fingerprint: dict):
        self.path = Path(path)
        # Round-trip through JSON so tuples in configs compare equal to
        # the lists a reloaded header carries.
        self.fingerprint = json.loads(json.dumps(fingerprint))
        self._header_written = False

    def load(self) -> dict[str, "RunResult"]:
        """Completed tasks keyed by :func:`task_key`.

        Raises
        ------
        ExperimentError
            When the file is not a task journal or its fingerprint does
            not match this journal's configuration.
        """
        if not self.path.exists():
            return {}
        completed: dict[str, RunResult] = {}
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise ExperimentError(
                f"{self.path}: not a task journal (unparseable header)"
            ) from None
        if header.get("format") != _FORMAT:
            raise ExperimentError(f"{self.path}: not a task journal")
        if header.get("fingerprint") != self.fingerprint:
            raise ExperimentError(
                f"{self.path}: journal fingerprint does not match this "
                f"experiment configuration; use a fresh journal path"
            )
        self._header_written = True
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # A torn trailing line from a crash mid-append: the task
                # never completed as far as the journal knows, re-run it.
                continue
            if entry.get("type") != "task":
                continue
            completed[entry["key"]] = run_result_from_json(entry["result"])
        return completed

    def record(self, key: str, result: "RunResult") -> None:
        """Append one completed task (flushed and fsynced)."""
        lines = []
        if not self._header_written and not self.path.exists():
            lines.append(json.dumps({
                "format": _FORMAT,
                "version": _VERSION,
                "fingerprint": self.fingerprint,
            }))
        lines.append(json.dumps({
            "type": "task",
            "key": key,
            "result": run_result_to_json(result),
        }))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            handle.flush()
            os.fsync(handle.fileno())
        self._header_written = True
