"""One task for every experiment: the paper's protocol over the registry.

Section 5.2's protocol is one loop: per seed, choose the labelled
tuples, fit, and score the cells of the other tuples.  :func:`run_task`
is that loop's body for any registered detector (:mod:`repro.detectors`),
and every entry point -- :func:`run_experiment`,
:func:`run_experiment_matrix`, the cross-detector comparison and the
error-family matrix -- only builds a task list for the one durable
executor: completed-task journal, per-task retries, optional forked
workers (:func:`repro.forkpool.fork_map`), and task-local telemetry.
Each task derives its seed as ``base_seed + run_index`` wherever it
runs, so pooled execution aggregates to the identical result
(wall-clock timings aside).
"""

from __future__ import annotations

import time

from collections.abc import Sequence
from contextlib import closing
from dataclasses import asdict, dataclass, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from repro import forkpool, telemetry
from repro.dataprep import prepare
from repro.datasets.base import DatasetPair
from repro.detectors import build, get
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.journal import TaskJournal, task_key
from repro.faults import inject
from repro.metrics import ClassificationReport, summarize
from repro.metrics.stats import Summary
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.nn import EpochEvaluator
from repro.nn.training import predict_proba
from repro.sampling import Sampler

#: Report label per registry detector (Table 3 naming).
DETECTOR_LABELS = {
    "tsb": "TSB-RNN",
    "etsb": "ETSB-RNN",
    "attn": "Attn-ED",
    "raha": "Raha (ours)",
    "augment": "Augment (ours)",
    "ensemble": "Ensemble (ours)",
}

#: Ensemble members used when an experiment names bare ``"ensemble"``.
DEFAULT_ENSEMBLE_MEMBERS = ("etsb", "raha")


def _is_neural(name: str, track_curves: bool = False) -> bool:
    """Whether ``name`` is a neural family; :class:`ExperimentError` for
    an unknown name and for ``track_curves`` on any other detector."""
    try:
        neural = issubclass(get(name), ErrorDetector)
    except ConfigurationError as error:
        raise ExperimentError(str(error)) from None
    if track_curves and not neural:
        raise ExperimentError(
            f"track_curves needs a neural detector (tsb, etsb, attn), "
            f"got {name!r}")
    return neural


def detector_config(name: str, n_label_tuples: int = 20,
                    training_config=None, model_config=None) -> dict:
    """Constructor kwargs for one registry detector at an experiment scale.

    Neural families take the budget plus the training/model overrides
    (dataclasses or dicts; ``None`` keeps their defaults); other
    detectors take the budget.  Bare ``"ensemble"`` fuses
    :data:`DEFAULT_ENSEMBLE_MEMBERS`: neural members get the neural
    config, the others their defaults.
    """
    neural: dict = {"n_label_tuples": n_label_tuples}
    for key, value in (("training_config", training_config),
                       ("model_config", model_config)):
        if value is not None:
            neural[key] = asdict(value) if is_dataclass(value) else dict(value)
    if name == "ensemble":
        return {"n_label_tuples": n_label_tuples, "members": [
            (member, dict(neural) if _is_neural(member) else {})
            for member in DEFAULT_ENSEMBLE_MEMBERS]}
    return neural if _is_neural(name) else {"n_label_tuples": n_label_tuples}


@dataclass(frozen=True)
class RunResult:
    """One task's outcome: metrics on the held-out cells, fit time.

    ``best_epoch``, the curves, ``unique_cell_ratio`` and the cache
    counters are recorded for the neural families only (``None`` / empty
    / 0 otherwise).  The inference counters describe the whole-table
    scoring pass (the dedup-memoized inference engine): how many cells
    were duplicates and how many were served from the prediction cache,
    keeping inference speedups observable run by run.

    ``telemetry`` is the run's full metrics snapshot (the
    :meth:`repro.telemetry.MetricsRegistry.snapshot` format) when
    telemetry was enabled during execution, else ``None``.  The snapshot
    pickles cleanly, so worker-process runs carry their metrics back to
    the parent for merging.
    """

    seed: int
    report: ClassificationReport
    train_seconds: float
    best_epoch: int | None
    train_accuracy_curve: tuple[float, ...] = ()
    test_accuracy_curve: tuple[float, ...] = ()
    unique_cell_ratio: float | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    telemetry: dict | None = None


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retries (graceful-degradation record)."""

    task_index: int
    dataset: str
    seed: int
    attempts: int
    error_type: str
    error: str


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate over the repeated runs of one experiment.

    ``failures`` is non-empty only for degraded runs (``fail_fast=False``
    with tasks that exhausted their retries): the aggregate then covers
    the successful runs and the failures document exactly what is
    missing.
    """

    dataset: str
    system: str
    runs: tuple[RunResult, ...]
    failures: tuple[TaskFailure, ...] = ()

    def _summary(self, metric: str) -> Summary:
        return summarize([getattr(run.report, metric) for run in self.runs])

    @property
    def precision(self) -> Summary:
        """Precision summary over runs."""
        return self._summary("precision")

    @property
    def recall(self) -> Summary:
        """Recall summary over runs."""
        return self._summary("recall")

    @property
    def f1(self) -> Summary:
        """F1 summary over runs."""
        return self._summary("f1")

    @property
    def train_seconds(self) -> Summary:
        """Training-time summary over runs."""
        return summarize([run.train_seconds for run in self.runs])

    @property
    def merged_telemetry(self) -> dict | None:
        """All runs' telemetry snapshots merged (``None`` if none carry one).

        Counters, histograms and timers add across runs; gauges keep the
        last run's value.  Identical whether the runs executed serially
        or on a process pool.
        """
        snapshots = [run.telemetry for run in self.runs
                     if run.telemetry is not None]
        return telemetry.merge_snapshots(snapshots) if snapshots else None

    def as_row(self) -> dict[str, float]:
        """Flat dict used by the table renderers."""
        return {
            "P": self.precision.mean, "P_sd": self.precision.stdev,
            "R": self.recall.mean, "R_sd": self.recall.stdev,
            "F1": self.f1.mean, "F1_sd": self.f1.stdev,
            "seconds": self.train_seconds.mean,
            "seconds_sd": self.train_seconds.stdev,
        }


@dataclass(frozen=True)
class Task:
    """:func:`run_task`'s arguments, as the executor queues them."""

    name: str
    config: dict
    pair: DatasetPair
    seed: int
    sampler: Sampler | None = None
    track_curves: bool = False

    @property
    def key(self) -> str:
        """The task's journal key."""
        return task_key(self.name, self.pair.name, self.seed)


def run_task(name: str, config: dict, pair: DatasetPair, seed: int,
             sampler: Sampler | None = None,
             track_curves: bool = False) -> RunResult:
    """Fit one registry detector on ``pair`` and score its held-out cells.

    The detector is ``build(name, **config, seed=seed)``.  With
    ``sampler=None`` it picks its own labelled tuples (``fit(pair)``):
    the neural families, the ensemble and augment draw DiverSet rows
    from ``default_rng(seed)`` and keep using that generator, Raha runs
    its own sampler.  Otherwise the task draws
    ``sampler.select(n_label_tuples, prepare(pair), default_rng(seed))``
    and pins those rows (``fit(pair, labeled_rows=rows)``), so the
    detector starts from a fresh generator.  Precision, recall and F1
    cover every cell of the tuples the fit did not label, against one
    ground truth for every detector: ``pair.error_mask()``, which
    compares whole values.  A difference past ``prepare``'s 128-character
    cut is therefore an error here, though the neural input never shows
    it and :meth:`~repro.models.ErrorDetector.evaluate`'s labels (cut
    values) call it clean.  ``train_seconds`` times ``fit`` alone: under
    ``sampler=None`` that includes the detector's own row choice, while
    a sampler's choice (the same rows for every detector of a
    comparison) is made before the clock starts.
    """
    neural = _is_neural(name, track_curves)
    detector = build(name, **{**config, "seed": seed})
    curves: dict[str, list[float]] = {"train_acc": [], "test_acc": []}
    if track_curves:
        detector.extra_callbacks = (_curve_callback(detector, curves),)
    rows = None if sampler is None else sampler.select(
        detector.n_label_tuples, prepare(pair.dirty, pair.clean),
        np.random.default_rng(seed))
    started = time.perf_counter()
    detector.fit(pair, labeled_rows=rows)
    elapsed = time.perf_counter() - started
    predictions = detector.predict_cells(pair.dirty)
    held_out = np.setdiff1d(np.arange(pair.n_rows), detector.labeled_rows)
    mask = np.asarray(pair.error_mask(), dtype=np.int64)
    report = ClassificationReport.from_predictions(
        mask[held_out].reshape(-1), predictions[held_out].reshape(-1))
    if not neural:
        return RunResult(seed=seed, report=report, train_seconds=elapsed,
                         best_epoch=None)
    assert detector.checkpoint is not None
    stats = detector.inference_stats
    return RunResult(
        seed=seed, report=report, train_seconds=elapsed,
        best_epoch=detector.checkpoint.best_epoch,
        train_accuracy_curve=tuple(curves["train_acc"]),
        test_accuracy_curve=tuple(curves["test_acc"]),
        unique_cell_ratio=round(stats.unique_ratio, 4),
        cache_hits=stats.cache_hits, cache_misses=stats.cache_misses)


def _attempt_task(tasks: list[Task], task_index: int, max_retries: int,
                  retry_backoff: float) -> RunResult | TaskFailure:
    """One task's attempts, in the process that runs the task.

    Up to ``1 + max_retries`` attempts with exponential backoff
    (``retry_backoff * 2**(n-1)`` seconds before retry ``n``), each
    bracketed by the ``runner.task_start`` / ``runner.task_end`` faults.
    Their context carries the task identity and the attempt number,
    letting a chaos plan target e.g. "kill task 3" or "fail every first
    attempt".  Only ``Exception`` failures are retried -- a
    :class:`~repro.faults.WorkerKilled` (``BaseException``) propagates
    like the SIGKILL it simulates.  Returns the task's result, or a
    :class:`TaskFailure` once its retries are exhausted.

    With telemetry enabled :func:`run_task` runs under a task-local
    registry (:func:`~repro.telemetry.run_captured`) whose snapshot is
    attached to the result, for :func:`_publish_experiment_telemetry`.
    """
    task = tasks[task_index]
    context = {"task_index": task_index, "detector": task.name,
               "dataset": task.pair.name, "seed": task.seed}
    for attempt in range(max_retries + 1):
        if attempt:
            _count("retry.attempts")
            time.sleep(retry_backoff * 2 ** (attempt - 1))
        try:
            inject("runner.task_start", **context, attempt=attempt)
            result, snapshot = telemetry.run_captured(
                run_task, task.name, task.config, task.pair, task.seed,
                task.sampler, task.track_curves)
            inject("runner.task_end", **context, attempt=attempt)
        except Exception as exc:  # kills (BaseException) propagate
            error = exc
            continue
        if attempt:
            _count("retry.successes")
        return result if snapshot is None else replace(result,
                                                        telemetry=snapshot)
    _count("retry.failures")
    return TaskFailure(task_index=task_index, dataset=task.pair.name,
                       seed=task.seed, attempts=max_retries + 1,
                       error_type=type(error).__name__, error=str(error))


def _count(name: str) -> None:
    if telemetry.enabled():
        telemetry.get_registry().counter(name).inc()


def run_grid(specs: dict[str, dict], pairs: Sequence[DatasetPair],
             n_runs: int, base_seed: int = 0,
             sampler: Sampler | None = None, track_curves: bool = False,
             journal_path: str | Path | None = None, **durability,
             ) -> dict[tuple[str, str], ExperimentResult]:
    """Run every (pair, detector, seed) task durably.

    ``specs`` maps registry names to constructor configs.  Returns one
    :class:`ExperimentResult` per (detector name, dataset name), in pair
    then ``specs`` order.  The journal's fingerprint is the specs, the
    sampler's name and ``track_curves``; it deliberately excludes the
    datasets, seeds and worker count, which select *which* tasks run or
    how fast, not what any one task computes -- so e.g. widening
    ``n_runs`` keeps every journalled task reusable.  See
    :func:`run_experiment` for ``journal_path`` and the other
    ``durability`` knobs.
    """
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    names = [pair.name for pair in pairs]
    if len(set(names)) != len(names):
        raise ExperimentError(f"dataset names must be unique, got {names}")
    for name in specs:
        _is_neural(name, track_curves)
    tasks = [Task(name, config, pair, base_seed + run_index, sampler,
                  track_curves)
             for pair in pairs for name, config in specs.items()
             for run_index in range(n_runs)]
    journal = None
    if journal_path is not None:
        journal = TaskJournal(journal_path, {
            "detectors": specs,
            "sampler": None if sampler is None else sampler.name,
            "track_curves": track_curves})
    runs, failures = _execute_tasks(tasks, journal=journal, **durability)
    # Tasks run pair-major, then detector, then seed: one slice of
    # ``n_runs`` tasks per (detector, dataset).
    results: dict[tuple[str, str], ExperimentResult] = {}
    for start in range(0, len(tasks), n_runs):
        task = tasks[start]
        result = ExperimentResult(
            dataset=task.pair.name,
            system=DETECTOR_LABELS.get(task.name, task.name),
            runs=tuple(run for run in runs[start:start + n_runs]
                       if run is not None),
            failures=tuple(f for f in failures
                           if start <= f.task_index < start + n_runs))
        _publish_experiment_telemetry(result)
        results[task.name, task.pair.name] = result
    return results


def run_experiment(pair: DatasetPair, detector: str = "etsb",
                   sampler: Sampler | None = None, n_runs: int = 10,
                   n_label_tuples: int = 20, epochs: int = 120,
                   model_config: ModelConfig | None = None,
                   training_config: TrainingConfig | None = None,
                   base_seed: int = 0,
                   track_curves: bool = False,
                   n_workers: int | None = None,
                   max_retries: int = 0,
                   retry_backoff: float = 0.5,
                   journal_path: str | Path | None = None,
                   fail_fast: bool = True) -> ExperimentResult:
    """Fit and score one registry detector ``n_runs`` times on one dataset.

    Parameters
    ----------
    pair:
        The (dirty, clean) dataset.
    detector:
        Registry name: ``"tsb"``, ``"etsb"``, ``"attn"``, ``"raha"``,
        ``"augment"`` or ``"ensemble"`` (see :func:`detector_config`).
    sampler:
        ``None`` (default) lets the detector choose its labelled tuples,
        the Table 3-5 protocol; a sampler pins its choice (see
        :func:`run_task`).
    n_runs:
        Repetitions; each run uses seed ``base_seed + run_index``.
    n_label_tuples, epochs:
        The paper's 20 tuples and 120 epochs by default.
    model_config, training_config:
        Neural settings; ``training_config`` overrides ``epochs``.
    track_curves:
        Record per-epoch train/test accuracy (needed for Figures 6/7;
        costs one extra evaluation pass per epoch; neural families only).
    n_workers:
        Fan the runs out over this many forked worker processes
        (:func:`repro.forkpool.fork_map`).  ``None`` or 1 runs serially
        in-process.  Aggregation is identical either way because every
        run's seed is ``base_seed + run_index``.
    max_retries, retry_backoff:
        Durability knobs: per-task retries with exponential backoff.
    journal_path:
        Completed-task journal (JSONL).  A re-invocation with the same
        journal skips every task already recorded, so a killed sweep
        resumes where it stopped and aggregates identically to a
        failure-free run.
    fail_fast:
        ``True`` raises on the first task that exhausts its retries;
        ``False`` degrades gracefully, returning the successful runs
        plus :class:`TaskFailure` records.
    """
    config = detector_config(
        detector, n_label_tuples,
        training_config or TrainingConfig(epochs=epochs), model_config)
    return run_grid(
        {detector: config}, [pair], n_runs, base_seed, sampler,
        track_curves, n_workers=n_workers, max_retries=max_retries,
        retry_backoff=retry_backoff, journal_path=journal_path,
        fail_fast=fail_fast)[detector, pair.name]


def run_experiment_matrix(pairs: Sequence[DatasetPair],
                          detector: str = "etsb",
                          sampler: Sampler | None = None, n_runs: int = 10,
                          n_label_tuples: int = 20, epochs: int = 120,
                          model_config: ModelConfig | None = None,
                          training_config: TrainingConfig | None = None,
                          base_seed: int = 0, **durability,
                          ) -> dict[str, ExperimentResult]:
    """:func:`run_experiment` over the full dataset x seed grid.

    Every (dataset, run) cell is an independent task, so with
    ``n_workers > 1`` the whole grid is interleaved across workers.
    Returns one :class:`ExperimentResult` per dataset, keyed and
    aggregated exactly as ``{pair.name: run_experiment(pair, ...)}``.
    ``durability`` takes :func:`run_experiment`'s knobs.
    """
    config = detector_config(
        detector, n_label_tuples,
        training_config or TrainingConfig(epochs=epochs), model_config)
    results = run_grid({detector: config}, pairs, n_runs, base_seed,
                        sampler, **durability)
    return {dataset: result for (_, dataset), result in results.items()}


def _publish_experiment_telemetry(result: ExperimentResult) -> None:
    """Merge per-run snapshots into the process registry and emit a record.

    Each run's metrics were collected under a task-local registry
    (serial and pooled schedules alike), so the process registry only
    learns about them here -- one merge per run, then one
    ``{"type": "experiment"}`` record per (detector, dataset).
    """
    if not telemetry.enabled():
        return
    for run in result.runs:
        if run.telemetry is not None:
            telemetry.publish_captured(run.telemetry, run_seed=run.seed)
    if not result.runs:  # fully-degraded dataset: nothing to aggregate
        return
    ratios = [run.unique_cell_ratio for run in result.runs
              if run.unique_cell_ratio is not None]
    telemetry.get_registry().emit({
        "type": "experiment",
        "dataset": result.dataset,
        "system": result.system,
        "n_runs": len(result.runs),
        "f1_mean": round(result.f1.mean, 4),
        "train_seconds_mean": round(result.train_seconds.mean, 4),
        "unique_cell_ratio": sum(ratios) / len(ratios) if ratios else None,
        "cache_hits": sum(run.cache_hits for run in result.runs),
        "cache_misses": sum(run.cache_misses for run in result.runs),
    })


def _execute_tasks(tasks: list[Task], n_workers: int | None = None,
                   max_retries: int = 0, retry_backoff: float = 0.5,
                   journal: TaskJournal | None = None,
                   fail_fast: bool = True,
                   ) -> tuple[list[RunResult | None], list[TaskFailure]]:
    """Execute tasks durably, preserving order.

    Tasks already in the journal are skipped and their journalled
    results reused.  The others run through
    :func:`~repro.forkpool.fork_map` over ``n_workers`` forked workers
    (inline for ``None`` or 1), each with its retries
    (:func:`_attempt_task`), and are journalled one by one as their
    results reach this process, in task order -- so a kill leaves every
    task before it journalled.  A task that exhausted its retries raises
    (``fail_fast=True``) or is recorded as a :class:`TaskFailure` with a
    ``None`` result slot (``fail_fast=False``).
    """
    if n_workers is not None and n_workers < 1:
        raise ExperimentError(f"n_workers must be >= 1, got {n_workers}")
    if max_retries < 0:
        raise ExperimentError(f"max_retries must be >= 0, got {max_retries}")
    if retry_backoff < 0:
        raise ExperimentError(f"retry_backoff must be >= 0, got {retry_backoff}")
    results: list[RunResult | None] = [None] * len(tasks)
    failures: list[TaskFailure] = []
    completed = journal.load() if journal is not None else {}
    pending: list[int] = []
    for i, task in enumerate(tasks):
        if task.key in completed:
            results[i] = completed[task.key]
            _count("runner.tasks_skipped")
        else:
            pending.append(i)
    attempt = partial(_attempt_task, tasks, max_retries=max_retries,
                      retry_backoff=retry_backoff)
    with closing(forkpool.fork_map(attempt, pending,
                                   n_workers or 1)) as outcomes:
        for i, outcome in zip(pending, outcomes):
            if isinstance(outcome, TaskFailure):
                if fail_fast:
                    task = tasks[i]
                    raise ExperimentError(
                        f"task {i} ({task.name}, {task.pair.name}, "
                        f"seed {task.seed}) failed after {outcome.attempts} "
                        f"attempt(s): {outcome.error}")
                failures.append(outcome)
                continue
            results[i] = outcome
            if journal is not None:
                journal.record(tasks[i].key, outcome)
            _count("runner.tasks_completed")
    return results, failures


def _curve_callback(detector: ErrorDetector,
                    logs: dict[str, list[float]]) -> EpochEvaluator:
    """Per-epoch train/test accuracy recorder for the figure benches."""

    def evaluate() -> dict[str, float]:
        assert detector.model is not None and detector.split is not None
        split = detector.split
        train_probs = predict_proba(detector.model, split.train.features)
        test_probs = predict_proba(detector.model, split.test.features)
        train_acc = float(
            (train_probs.argmax(axis=1) == split.train.labels).mean())
        test_acc = float(
            (test_probs.argmax(axis=1) == split.test.labels).mean())
        logs["train_acc"].append(train_acc)
        logs["test_acc"].append(test_acc)
        return {"train_accuracy": train_acc, "test_accuracy": test_acc}

    return EpochEvaluator(evaluate)
