"""Repeated-run experiment execution (Section 5.2's protocol).

``run_experiment`` trains a detector ``n_runs`` times with different
seeds, recording precision/recall/F1, wall-clock training time and
(optionally) per-epoch train/test accuracy for the figures.  Runs are
independent, so ``n_workers > 1`` fans them out over a process pool;
``run_experiment_matrix`` extends the fan-out to the full dataset x seed
grid.  Each task derives its seed as ``base_seed + run_index`` whether it
runs serially or in a worker, so parallel execution aggregates to the
identical result (wall-clock timings aside).
``run_raha_baseline`` evaluates the from-scratch Raha implementation
under the identical 20-labelled-tuples protocol.
"""

from __future__ import annotations

import time

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.baselines.raha import RahaDetector

from repro.datasets.base import DatasetPair
from repro.errors import ExperimentError
from repro.experiments.journal import TaskJournal, task_key
from repro.faults import inject
from repro.metrics import ClassificationReport, summarize
from repro.metrics.stats import Summary
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.nn import EpochEvaluator
from repro.nn.training import predict_proba
from repro.sampling import DiverSet, Sampler

#: Report labels for the neural architectures (Table 3 naming).
ARCHITECTURE_LABELS = {
    "tsb": "TSB-RNN",
    "etsb": "ETSB-RNN",
    "attn": "Attn-ED",
}


@dataclass(frozen=True)
class RunResult:
    """One training run's outcome.

    ``unique_cell_ratio`` and the cache counters describe the evaluation
    prediction pass (the dedup-memoized inference engine): how many test
    cells were duplicates and how many were served from the prediction
    cache, keeping inference speedups observable run by run.

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
    def unique_cell_ratio(self) -> float | None:
        """Mean unique-cell ratio of the runs' evaluation passes."""
        ratios = [run.unique_cell_ratio for run in self.runs
                  if run.unique_cell_ratio is not None]
        return sum(ratios) / len(ratios) if ratios else None

    @property
    def cache_counters(self) -> tuple[int, int]:
        """Total (hits, misses) of the runs' evaluation prediction caches."""
        return (sum(run.cache_hits for run in self.runs),
                sum(run.cache_misses for run in self.runs))

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


def _execute_task(task: tuple, task_index: int, attempt: int) -> RunResult:
    """One durable-executor attempt at one task, bracketed by injects.

    Module-level so the process pool can pickle it; runs in the worker,
    so ``runner.task_start`` / ``runner.task_end`` faults fire in the
    process doing the work (workers inherit plans via ``REPRO_FAULTS``).
    The context carries the task identity and the attempt number, letting
    a chaos plan target e.g. "kill task 3" or "fail every first attempt".
    """
    context = {"task_index": task_index, "dataset": task[0].name,
               "seed": task[6], "attempt": attempt}
    inject("runner.task_start", **context)
    result = _execute_run(*task)
    inject("runner.task_end", **context)
    return result


def _execute_run(pair: DatasetPair, architecture: str,
                 sampler: Sampler | None, n_label_tuples: int,
                 model_config: ModelConfig | None,
                 training_config: TrainingConfig,
                 seed: int, track_curves: bool) -> RunResult:
    """Train and evaluate one detector run (one task of the matrix).

    A module-level function so a :class:`ProcessPoolExecutor` can pickle
    it; seeding depends only on the arguments, never on which process
    executes the task, so serial and parallel schedules produce the same
    :class:`RunResult` (up to ``train_seconds`` and telemetry timings).

    When telemetry is enabled the run executes under a task-local
    :class:`~repro.telemetry.MetricsRegistry`
    (:func:`~repro.telemetry.run_captured`) whose snapshot is attached
    to the result -- worker processes never share sinks or metric
    objects, so records can't interleave; the parent merges snapshots.
    """
    result, snapshot = telemetry.run_captured(
        _execute_run_body, pair, architecture, sampler, n_label_tuples,
        model_config, training_config, seed, track_curves)
    if snapshot is None:
        return result
    return replace(result, telemetry=snapshot)


def _execute_run_body(pair: DatasetPair, architecture: str,
                      sampler: Sampler | None, n_label_tuples: int,
                      model_config: ModelConfig | None,
                      training_config: TrainingConfig,
                      seed: int, track_curves: bool) -> RunResult:
    detector = ErrorDetector(
        architecture=architecture,
        sampler=sampler if sampler is not None else DiverSet(),
        n_label_tuples=n_label_tuples,
        model_config=model_config,
        training_config=training_config,
        seed=seed,
    )
    callbacks = []
    curve_logs: dict[str, list[float]] = {"train_acc": [], "test_acc": []}
    if track_curves:
        callbacks.append(_curve_callback(detector, curve_logs))
    detector.extra_callbacks = tuple(callbacks)
    started = time.perf_counter()
    detector.fit(pair)
    elapsed = time.perf_counter() - started
    result = detector.evaluate()
    assert detector.checkpoint is not None
    inference = result.inference
    return RunResult(
        seed=seed,
        report=result.report,
        train_seconds=elapsed,
        best_epoch=detector.checkpoint.best_epoch,
        train_accuracy_curve=tuple(curve_logs["train_acc"]),
        test_accuracy_curve=tuple(curve_logs["test_acc"]),
        unique_cell_ratio=(None if inference is None
                           else round(inference.unique_ratio, 4)),
        cache_hits=0 if inference is None else inference.cache_hits,
        cache_misses=0 if inference is None else inference.cache_misses,
    )


def _journal_fingerprint(architecture: str, n_label_tuples: int,
                         model_config: ModelConfig | None,
                         training_config: TrainingConfig,
                         track_curves: bool) -> dict:
    """The configuration identity a journal is valid for.

    Deliberately excludes the dataset list, seed range and worker count:
    those select *which* tasks run or how fast, not what any one task
    computes, so e.g. widening ``n_runs`` keeps every journalled task
    reusable.
    """
    return {
        "architecture": architecture,
        "n_label_tuples": n_label_tuples,
        "model_config": None if model_config is None else asdict(model_config),
        "training_config": asdict(training_config),
        "track_curves": track_curves,
    }


def run_experiment(pair: DatasetPair, architecture: str = "etsb",
                   sampler: Sampler | None = None, n_runs: int = 10,
                   n_label_tuples: int = 20, epochs: int = 120,
                   model_config: ModelConfig | None = None,
                   training_config: TrainingConfig | None = None,
                   base_seed: int = 0,
                   track_curves: bool = False,
                   n_workers: int | None = None,
                   max_retries: int = 0,
                   retry_backoff: float = 0.5,
                   task_timeout: float | None = None,
                   journal_path: str | Path | None = None,
                   fail_fast: bool = True) -> ExperimentResult:
    """Train and evaluate a detector ``n_runs`` times on one dataset.

    Parameters
    ----------
    pair:
        The (dirty, clean) dataset.
    architecture:
        ``"tsb"`` or ``"etsb"``.
    sampler:
        Trainset-selection algorithm (default DiverSet, as in Section 5.2).
    n_runs:
        Repetitions; each run uses seed ``base_seed + run_index``.
    n_label_tuples, epochs:
        The paper's 20 tuples and 120 epochs by default.
    training_config:
        Full training configuration; overrides ``epochs`` when given.
    track_curves:
        Record per-epoch train/test accuracy (needed for Figures 6/7;
        costs one extra evaluation pass per epoch).
    n_workers:
        Fan the runs out over this many worker processes.  ``None`` or 1
        runs serially in-process.  Aggregation is identical either way
        because every run's seed is ``base_seed + run_index``.
    max_retries, retry_backoff, task_timeout:
        Durability knobs: per-task retries with exponential backoff and
        (pooled execution only) a per-attempt wall-clock limit.
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
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    config = (training_config if training_config is not None
              else TrainingConfig(epochs=epochs))
    tasks = [
        (pair, architecture, sampler, n_label_tuples, model_config, config,
         base_seed + run_index, track_curves)
        for run_index in range(n_runs)
    ]
    journal = None
    if journal_path is not None:
        journal = TaskJournal(journal_path, _journal_fingerprint(
            architecture, n_label_tuples, model_config, config, track_curves))
    runs, failures = _execute_tasks(
        tasks, n_workers, max_retries=max_retries,
        retry_backoff=retry_backoff, task_timeout=task_timeout,
        journal=journal, fail_fast=fail_fast)
    system = ARCHITECTURE_LABELS.get(architecture, architecture)
    result = ExperimentResult(dataset=pair.name, system=system,
                              runs=tuple(run for run in runs
                                         if run is not None),
                              failures=tuple(failures))
    _publish_experiment_telemetry(result)
    return result


def run_experiment_matrix(pairs: Sequence[DatasetPair],
                          architecture: str = "etsb",
                          sampler: Sampler | None = None, n_runs: int = 10,
                          n_label_tuples: int = 20, epochs: int = 120,
                          model_config: ModelConfig | None = None,
                          training_config: TrainingConfig | None = None,
                          base_seed: int = 0,
                          n_workers: int | None = None,
                          max_retries: int = 0,
                          retry_backoff: float = 0.5,
                          task_timeout: float | None = None,
                          journal_path: str | Path | None = None,
                          fail_fast: bool = True,
                          ) -> dict[str, ExperimentResult]:
    """Run the full dataset x seed grid, optionally over a process pool.

    Every (dataset, run) cell is an independent task, so with
    ``n_workers > 1`` the whole grid is interleaved across workers instead
    of parallelising only within one dataset.  Returns one
    :class:`ExperimentResult` per dataset, keyed and aggregated exactly as
    ``{pair.name: run_experiment(pair, ...)}`` would produce serially.

    The durability knobs (``max_retries``, ``retry_backoff``,
    ``task_timeout``, ``journal_path``, ``fail_fast``) behave as in
    :func:`run_experiment`; with a journal, a matrix re-invocation after
    a crash re-runs only the tasks the journal does not yet hold.
    """
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    names = [pair.name for pair in pairs]
    if len(set(names)) != len(names):
        raise ExperimentError(f"dataset names must be unique, got {names}")
    config = (training_config if training_config is not None
              else TrainingConfig(epochs=epochs))
    tasks = [
        (pair, architecture, sampler, n_label_tuples, model_config, config,
         base_seed + run_index, False)
        for pair in pairs
        for run_index in range(n_runs)
    ]
    journal = None
    if journal_path is not None:
        journal = TaskJournal(journal_path, _journal_fingerprint(
            architecture, n_label_tuples, model_config, config, False))
    runs, failures = _execute_tasks(
        tasks, n_workers, max_retries=max_retries,
        retry_backoff=retry_backoff, task_timeout=task_timeout,
        journal=journal, fail_fast=fail_fast)
    system = ARCHITECTURE_LABELS.get(architecture, architecture)
    results: dict[str, ExperimentResult] = {}
    for i, pair in enumerate(pairs):
        chunk = runs[i * n_runs:(i + 1) * n_runs]
        results[pair.name] = ExperimentResult(
            dataset=pair.name, system=system,
            runs=tuple(run for run in chunk if run is not None),
            failures=tuple(f for f in failures if f.dataset == pair.name))
        _publish_experiment_telemetry(results[pair.name])
    return results


def _publish_experiment_telemetry(result: ExperimentResult) -> None:
    """Merge per-run snapshots into the process registry and emit a record.

    Each run's metrics were collected under a task-local registry
    (serial and pooled schedules alike), so the process registry only
    learns about them here -- one merge per run, then one
    ``{"type": "experiment"}`` record per dataset.
    """
    if not telemetry.enabled():
        return
    for run in result.runs:
        if run.telemetry is not None:
            telemetry.publish_captured(run.telemetry, run_seed=run.seed)
    if not result.runs:  # fully-degraded dataset: nothing to aggregate
        return
    telemetry.get_registry().emit({
        "type": "experiment",
        "dataset": result.dataset,
        "system": result.system,
        "n_runs": len(result.runs),
        "f1_mean": round(result.f1.mean, 4),
        "train_seconds_mean": round(result.train_seconds.mean, 4),
        "unique_cell_ratio": result.unique_cell_ratio,
        "cache_hits": result.cache_counters[0],
        "cache_misses": result.cache_counters[1],
    })


def _execute_tasks(tasks: list[tuple], n_workers: int | None,
                   max_retries: int = 0, retry_backoff: float = 0.5,
                   task_timeout: float | None = None,
                   journal: TaskJournal | None = None,
                   fail_fast: bool = True,
                   ) -> tuple[list[RunResult | None], list[TaskFailure]]:
    """Execute run tasks durably, preserving order.

    Per task: journal lookup (already-completed tasks are skipped and
    their journalled results reused), then up to ``1 + max_retries``
    attempts with exponential backoff (``retry_backoff * 2**(n-1)``
    seconds before retry ``n``).  Only ``Exception`` failures are
    retried -- a :class:`~repro.faults.WorkerKilled` (``BaseException``)
    propagates like the SIGKILL it simulates, and the journal is what
    makes the re-invocation cheap.  ``task_timeout`` bounds each pooled
    attempt (the timed-out worker cannot be interrupted and keeps its
    slot until it finishes; serial attempts cannot be timed out and the
    limit is ignored).  A task exhausting its retries raises
    (``fail_fast=True``) or is recorded as a :class:`TaskFailure` with a
    ``None`` result slot (``fail_fast=False``).
    """
    if n_workers is not None and n_workers < 1:
        raise ExperimentError(f"n_workers must be >= 1, got {n_workers}")
    if max_retries < 0:
        raise ExperimentError(f"max_retries must be >= 0, got {max_retries}")
    if retry_backoff < 0:
        raise ExperimentError(
            f"retry_backoff must be >= 0, got {retry_backoff}"
        )
    if task_timeout is not None and task_timeout <= 0:
        raise ExperimentError(
            f"task_timeout must be positive, got {task_timeout}"
        )
    tele = telemetry.enabled()
    registry = telemetry.get_registry() if tele else None
    results: list[RunResult | None] = [None] * len(tasks)
    failures: list[TaskFailure] = []
    completed = journal.load() if journal is not None else {}
    pending: list[int] = []
    for i, task in enumerate(tasks):
        key = task_key(task[0].name, task[6])
        if key in completed:
            results[i] = completed[key]
            if tele:
                registry.counter("runner.tasks_skipped").inc()
        else:
            pending.append(i)

    def finish(index: int, result: RunResult) -> None:
        results[index] = result
        if journal is not None:
            journal.record(task_key(tasks[index][0].name, tasks[index][6]),
                           result)
        if tele:
            registry.counter("runner.tasks_completed").inc()

    def fail(index: int, attempts: int, error: Exception) -> None:
        if tele:
            registry.counter("retry.failures").inc()
        if fail_fast:
            raise ExperimentError(
                f"task {index} ({tasks[index][0].name}, "
                f"seed {tasks[index][6]}) failed after {attempts} "
                f"attempt(s): {error}"
            ) from error
        failures.append(TaskFailure(
            task_index=index, dataset=tasks[index][0].name,
            seed=tasks[index][6], attempts=attempts,
            error_type=type(error).__name__, error=str(error)))

    def backoff(attempt: int) -> None:
        if tele:
            registry.counter("retry.attempts").inc()
        if retry_backoff > 0:
            time.sleep(retry_backoff * 2 ** (attempt - 1))

    if n_workers is None or n_workers == 1 or len(pending) <= 1:
        for i in pending:
            for attempt in range(max_retries + 1):
                if attempt:
                    backoff(attempt)
                try:
                    result = _execute_task(tasks[i], i, attempt)
                except Exception as error:  # kills (BaseException) propagate
                    if attempt == max_retries:
                        fail(i, attempt + 1, error)
                else:
                    if tele and attempt:
                        registry.counter("retry.successes").inc()
                    finish(i, result)
                    break
        return results, failures

    workers = min(n_workers, len(pending))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(_execute_task, tasks[i], i, 0)
                   for i in pending}
        for i in pending:
            for attempt in range(max_retries + 1):
                if attempt:
                    backoff(attempt)
                    futures[i] = pool.submit(_execute_task, tasks[i], i,
                                             attempt)
                try:
                    result = futures[i].result(timeout=task_timeout)
                except FutureTimeout:
                    futures[i].cancel()
                    if attempt == max_retries:
                        fail(i, attempt + 1, ExperimentError(
                            f"attempt exceeded task_timeout={task_timeout}s"))
                except Exception as error:  # kills propagate, see above
                    if attempt == max_retries:
                        fail(i, attempt + 1, error)
                else:
                    if tele and attempt:
                        registry.counter("retry.successes").inc()
                    finish(i, result)
                    break
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


def run_augmentation_baseline(pair: DatasetPair, n_runs: int = 10,
                              n_label_tuples: int = 20,
                              base_seed: int = 0) -> ExperimentResult:
    """Evaluate the augmentation baseline (the Rotom comparison axis).

    The detector receives the same 20 labelled tuples (sampled by
    DiverSet over the prepared data) as cell texts with labels, expands
    them with augmentation operators and classifies every held-out cell
    text.  Cells are treated per-column (one detector per attribute), as
    augmentation-based systems do.
    """
    from repro.baselines.augment import AugmentationDetector
    from repro.dataprep import prepare

    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    prepared = prepare(pair.dirty, pair.clean)
    rows = prepared.df.to_rows()
    runs: list[RunResult] = []
    for run_index in range(n_runs):
        seed = base_seed + run_index
        rng = np.random.default_rng(seed)
        train_ids = set(DiverSet().select(n_label_tuples, prepared, rng))
        started = time.perf_counter()
        y_true: list[int] = []
        y_pred: list[int] = []
        for attribute in prepared.attributes:
            attr_rows = [r for r in rows if r["attribute"] == attribute]
            train = [r for r in attr_rows if r["id_"] in train_ids]
            test = [r for r in attr_rows if r["id_"] not in train_ids]
            detector = AugmentationDetector(rng=rng)
            detector.fit([r["value_x"] for r in train],
                         [int(r["label"]) for r in train])
            predictions = detector.predict([r["value_x"] for r in test])
            y_true.extend(int(r["label"]) for r in test)
            y_pred.extend(int(p) for p in predictions)
        elapsed = time.perf_counter() - started
        report = ClassificationReport.from_predictions(
            np.array(y_true), np.array(y_pred))
        runs.append(RunResult(seed=seed, report=report,
                              train_seconds=elapsed, best_epoch=None))
    return ExperimentResult(dataset=pair.name, system="Augment (ours)",
                            runs=tuple(runs))


def run_raha_baseline(pair: DatasetPair, n_runs: int = 10,
                      n_label_tuples: int = 20,
                      base_seed: int = 0) -> ExperimentResult:
    """Evaluate the from-scratch Raha baseline under the same protocol.

    The detector analyses the dirty table, samples ``n_label_tuples``
    tuples, receives their ground-truth cell labels, propagates them and
    classifies every cell.  Metrics are computed on the cells of the
    *non-labelled* tuples, mirroring the BiRNN test split.
    """
    if n_runs < 1:
        raise ExperimentError(f"n_runs must be >= 1, got {n_runs}")
    mask = np.array(pair.error_mask())
    runs: list[RunResult] = []
    for run_index in range(n_runs):
        seed = base_seed + run_index
        rng = np.random.default_rng(seed)
        detector = RahaDetector(rng=rng)
        started = time.perf_counter()
        detector.analyze(pair.dirty, n_labels=n_label_tuples)
        labeled_rows = detector.sample_tuples(n_label_tuples)
        predictions = detector.fit_predict(
            labeled_rows, mask[labeled_rows].astype(np.int64))
        elapsed = time.perf_counter() - started
        test_rows = np.array([i for i in range(pair.n_rows)
                              if i not in set(labeled_rows)])
        report = ClassificationReport.from_predictions(
            mask[test_rows].astype(np.int64).reshape(-1),
            predictions[test_rows].reshape(-1),
        )
        runs.append(RunResult(seed=seed, report=report,
                              train_seconds=elapsed, best_epoch=None))
    return ExperimentResult(dataset=pair.name, system="Raha (ours)",
                            runs=tuple(runs))
