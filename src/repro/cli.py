"""Command-line interface.

The subcommands mirror the library's main workflows::

    repro datasets                          # Table 2 overview
    repro detect  --dirty d.csv --clean c.csv --out errors.csv
    repro repair  --dirty d.csv --clean c.csv --out repaired.csv
    repro predict --model model.npz --dirty d.csv
    repro serve   --model model.npz a.csv b.csv c.csv
    repro serve   --model model.npz --daemon --port 7433
    repro benchmark --dataset beers --rows 200 --runs 2
    repro benchmark --dataset beers --resume runs.jsonl --max-retries 2
    repro faults list
    repro faults run --plan plan.json --dataset beers --resume runs.jsonl

``detect``/``repair`` also accept ``--save model.npz`` /
``--model model.npz`` for reusing a trained detector.  ``predict`` and
``serve`` score through the dedup-memoized inference engine (size the
cross-call cache with ``--cache-size``) and encode cells as training
did; ``serve`` keeps the prediction cache warm across input files and,
with ``--daemon``, becomes a long-lived socket server that micro-batches
concurrent score requests, re-scores only edited cells, and hot-swaps
models per tenant (see :mod:`repro.serving`).

Every workload subcommand accepts ``--telemetry-out out.jsonl``, which
enables the instrumentation layer for the duration of the command and
streams structured records (epochs, spans, inference counters, plus a
final metrics snapshot) to the given JSON-lines file; inspect one with
``repro telemetry summarize out.jsonl``.
"""

from __future__ import annotations

import argparse
import sys

from contextlib import contextmanager

import numpy as np

from repro import telemetry
from repro.datasets import DATASET_NAMES, load
from repro.datasets.base import DatasetPair
from repro.errors import ConfigurationError
from repro.detectors import list_detectors
from repro.experiments import (
    render_comparison,
    render_table2,
    run_detector_comparison,
    run_experiment,
)
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.models.serialization import load_detector, save_detector
from repro.repair import (
    FormatRepairer,
    FrequentValueRepairer,
    RepairPipeline,
)
from repro.table import Table, read_csv, write_csv


def _add_telemetry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry-out", metavar="JSONL", default=None,
                        help="enable instrumentation for this command and "
                             "stream records to the given JSON-lines file "
                             "(summarize with 'repro telemetry summarize')")


@contextmanager
def _telemetry_session(args):
    """Run one command under a fresh registry streaming to ``--telemetry-out``.

    A no-op when the flag is absent.  Installs a fresh
    :class:`~repro.telemetry.MetricsRegistry` (so repeated ``main()``
    calls in one process never accumulate) with a JSON-lines sink, turns
    telemetry on for the duration, and closes with a final
    ``{"type": "snapshot"}`` record carrying the full metrics state.
    """
    path = getattr(args, "telemetry_out", None)
    if not path:
        yield
        return
    registry = telemetry.MetricsRegistry()
    sink = telemetry.JsonlSink(path)
    registry.add_sink(sink)
    with telemetry.use_telemetry(registry):
        try:
            yield
        finally:
            registry.emit({"type": "snapshot",
                           "metrics": registry.snapshot()})
            sink.close()
            print(f"telemetry: {sink.n_records} records written to {path}",
                  file=sys.stderr)


def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-size", type=int, default=None,
                        help="prediction-cache capacity in unique cells "
                             "(default: 65536)")


def _add_training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", choices=("tsb", "etsb", "attn"),
                        default="etsb",
                        help="model architecture (default: etsb)")
    parser.add_argument("--epochs", type=int, default=120,
                        help="training epochs (default: 120, the paper's)")
    parser.add_argument("--tuples", type=int, default=20,
                        help="labelled tuples (default: 20)")
    parser.add_argument("--cell", choices=("rnn", "lstm", "gru"),
                        default="rnn", help="recurrence cell family")
    parser.add_argument("--seed", type=int, default=0)


def _add_benchmark_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``benchmark`` and ``faults run``."""
    parser.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    parser.add_argument("--rows", type=int, default=200)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--workers", type=int, default=None,
                        help="fan runs out over this many worker processes "
                             "(default: serial; results are identical)")
    parser.add_argument("--resume", metavar="JOURNAL", default=None,
                        help="completed-task journal (JSONL); tasks already "
                             "recorded are skipped, so re-invoking after a "
                             "crash finishes only the remaining runs")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="per-task retries with exponential backoff "
                             "(default: 0)")
    parser.add_argument("--detectors", default=None, metavar="NAMES",
                        help="comma-separated registry detectors (e.g. "
                             "etsb,raha,attn,ensemble); runs the "
                             "cross-detector comparison over shared "
                             "labelled rows instead of one architecture")
    _add_training_flags(parser)
    _add_telemetry_flag(parser)


def _fit_detector(args) -> tuple[ErrorDetector, Table]:
    dirty = read_csv(args.dirty)
    detector = ErrorDetector(
        architecture=args.arch,
        n_label_tuples=args.tuples,
        model_config=ModelConfig(cell_type=args.cell),
        training_config=TrainingConfig(epochs=args.epochs),
        seed=args.seed,
    )
    clean = read_csv(args.clean)
    print(f"training {args.arch.upper()}-RNN on {dirty.n_rows} rows "
          f"x {dirty.n_cols} columns ({args.epochs} epochs)...",
          file=sys.stderr)
    detector.fit(DatasetPair(name=args.dirty, dirty=dirty, clean=clean))
    result = detector.evaluate()
    print(f"held-out metrics: {result.report}", file=sys.stderr)
    return detector, dirty


def _predicted_mask(detector: ErrorDetector, dirty: Table) -> np.ndarray:
    positions = {a: j for j, a in enumerate(dirty.column_names)}
    mask = np.zeros(dirty.shape, dtype=bool)
    for tuple_id, attribute in detector.predict_table():
        mask[tuple_id, positions[attribute]] = True
    return mask


def cmd_datasets(args) -> int:
    rows = args.rows
    pairs = [load(name, n_rows=rows, seed=args.seed)
             for name in DATASET_NAMES]
    _, text = render_table2(pairs)
    print(text)
    return 0


def cmd_detect_path(args) -> int:
    """Unlabeled mode: ingest real files and score them end to end.

    ``repro detect <path>`` walks a file or folder through the
    :mod:`repro.io` ingestion layer (encoding/dialect sniffing, ragged
    recovery, SQLite extraction), profiles every column, and either
    trains a BiRNN per table against the analyzers' weak labels or, with
    ``--model``, scores with a saved detector.  No clean table needed.
    """
    from repro.errors import IngestError
    from repro.io import detect_path, scores_table

    detector = None
    if args.model:
        detector = load_detector(args.model)
    try:
        report, outcomes = detect_path(
            args.path, detector=detector, architecture=args.arch,
            n_label_tuples=args.tuples, epochs=args.epochs,
            cell_type=args.cell, seed=args.seed)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path, reason in report.skipped:
        print(f"skipped {path}: {reason}", file=sys.stderr)
    stats = report.stats
    print(f"ingested {stats.tables_ingested} table(s) from "
          f"{stats.files_parsed}/{stats.files_discovered} file(s) "
          f"({stats.encoding_fallbacks} encoding fallbacks, "
          f"{stats.rows_recovered} ragged rows recovered)", file=sys.stderr)
    if not outcomes:
        print("error: nothing ingestable under "
              f"{args.path}", file=sys.stderr)
        return 1
    total_flagged = 0
    for outcome in outcomes:
        flagged = outcome.flagged
        total_flagged += len(flagged)
        kinds = ", ".join(f"{name}={profile.kind.value}"
                          for name, profile in outcome.profiles.items())
        print(f"{outcome.table.name}: {outcome.table.table.n_rows} rows, "
              f"{len(flagged)} suspicious cells  [{kinds}]", file=sys.stderr)
    out = scores_table(outcomes, flagged_only=not args.all_cells)
    if args.out:
        write_csv(out, args.out)
        print(f"{out.n_rows} scored cells written to {args.out}",
              file=sys.stderr)
    else:
        print(out.preview(min(out.n_rows, 50)))
    return 0


def cmd_detect(args) -> int:
    if args.path:
        if args.dirty or args.clean:
            print("error: give either a PATH (unlabeled ingestion) or "
                  "--dirty/--clean (labeled pair), not both",
                  file=sys.stderr)
            return 2
        return cmd_detect_path(args)
    if not args.dirty or not args.clean:
        print("error: detect needs a PATH or both --dirty and --clean",
              file=sys.stderr)
        return 2
    detector, dirty = _fit_detector(args)
    if args.save:
        save_detector(detector, args.save)
        print(f"model saved to {args.save}", file=sys.stderr)
    cells = detector.predict_table()
    out = Table({
        "row": [tid for tid, _ in cells],
        "attribute": [attr for _, attr in cells],
        "value": [dirty.column(attr)[tid] for tid, attr in cells],
    })
    if args.out:
        write_csv(out, args.out)
        print(f"{out.n_rows} suspicious cells written to {args.out}",
              file=sys.stderr)
    else:
        print(out.preview(min(out.n_rows, 50)))
    return 0


def cmd_repair(args) -> int:
    detector, dirty = _fit_detector(args)
    mask = _predicted_mask(detector, dirty)
    pipeline = RepairPipeline([FormatRepairer(), FrequentValueRepairer()])
    outcome = pipeline.run(dirty, mask)
    print(f"flagged {int(mask.sum())} cells; repaired {outcome.n_applied}, "
          f"left {len(outcome.unrepaired)} unrepaired", file=sys.stderr)
    write_csv(outcome.repaired, args.out)
    print(f"repaired table written to {args.out}", file=sys.stderr)
    return 0


def _score_csv(detector: ErrorDetector, dirty: Table) -> Table | None:
    """Score every cell of ``dirty`` with a loaded detector.

    Returns the flagged-cells table, or ``None`` when no column matches
    the model's attributes.  Prediction runs through the detector's
    dedup-memoized inference engine, so duplicate cells (and, across
    calls, previously seen cells) skip the network.  The table keeps
    each flagged cell's value as the file holds it.
    """
    usable, probabilities = detector.score_columns(dirty)
    skipped = [name for name in dirty.column_names if name not in usable]
    if skipped:
        print(f"skipping columns the model never saw: {skipped}",
              file=sys.stderr)
    if not usable:
        return None
    flagged = np.flatnonzero(probabilities.argmax(axis=1))
    rows = (flagged % dirty.n_rows).tolist()
    attributes = [usable[j] for j in (flagged // dirty.n_rows).tolist()]
    values = [dirty.column(name).values[row]
              for row, name in zip(rows, attributes)]
    return Table({
        "row": rows,
        "attribute": attributes,
        "value": ["" if value is None else str(value) for value in values],
    })


def _configure_inference(detector: ErrorDetector, args) -> None:
    """Apply the shared serving flag (--cache-size)."""
    if args.cache_size is not None:
        detector.prediction_cache.resize(args.cache_size)


def cmd_predict(args) -> int:
    from repro.models.serialization import load_detector

    detector = load_detector(args.model)
    _configure_inference(detector, args)
    out = _score_csv(detector, read_csv(args.dirty))
    if out is None:
        print("error: no column of this CSV matches the model's attributes",
              file=sys.stderr)
        return 1
    if args.out:
        write_csv(out, args.out)
        print(f"{out.n_rows} suspicious cells written to {args.out}",
              file=sys.stderr)
    else:
        print(out.preview(min(out.n_rows, 50)))
    stats = detector.inference_stats
    print(f"inference: {stats.n_rows} cells, {stats.n_unique} unique "
          f"({stats.unique_ratio:.1%}), cache hits {stats.cache_hits} / "
          f"misses {stats.cache_misses}", file=sys.stderr)
    return 0


def cmd_serve_daemon(args) -> int:
    """Long-lived scoring daemon (``repro serve --daemon``).

    Binds a local TCP socket and serves JSON-lines score / update /
    feedback / swap_model requests until a client sends ``shutdown`` (or
    the process receives SIGINT).  Concurrent requests are coalesced
    into micro-batched forwards; see :mod:`repro.serving`.
    """
    from repro.serving import ServingDaemon

    daemon = ServingDaemon(
        model_path=args.model,
        host=args.host, port=args.port,
        max_batch_rows=args.max_batch_rows,
        batch_delay_ms=args.batch_delay_ms,
        max_queue_rows=args.max_queue_rows,
        cache_size=args.cache_size if args.cache_size is not None else 65536,
    )
    print(f"serving daemon listening on {daemon.host}:{daemon.port} "
          f"(micro-batch <= {args.max_batch_rows} rows / "
          f"{args.batch_delay_ms}ms, queue bound {args.max_queue_rows} rows)",
          file=sys.stderr)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.close()
    stats = daemon.batcher.stats
    print(f"daemon stopped: {daemon.n_requests} requests, "
          f"{stats.n_batches} batches ({stats.mean_batch_items:.1f} "
          f"requests/batch), {daemon.n_rejected} shed", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """Batch-scoring loop: load the model once, score many CSVs.

    The detector's prediction cache persists across files, so any cell
    (attribute, value) pair seen in an earlier file is served without
    touching the network -- the serving-traffic fast path.  A file that
    fails (unreadable, malformed, or sharing no column with the model)
    is reported with its reason and turns the exit code nonzero; the
    remaining files are still served.

    ``--daemon`` switches to the long-lived socket daemon instead (no
    input CSVs; see :mod:`repro.serving`).
    """
    from pathlib import Path

    from repro.errors import DataError, TableError
    from repro.models.serialization import load_detector

    if args.daemon:
        if args.inputs:
            print("error: --daemon takes no input CSVs (clients submit "
                  "cells over the socket)", file=sys.stderr)
            return 2
        try:
            return cmd_serve_daemon(args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if not args.inputs:
        print("error: batch mode needs at least one input CSV "
              "(or --daemon for the socket server)", file=sys.stderr)
        return 2

    detector = load_detector(args.model)
    _configure_inference(detector, args)
    failures: list[tuple[str, str]] = []
    for path in args.inputs:
        try:
            table = read_csv(path)
            out = _score_csv(detector, table)
        except (OSError, DataError, TableError, ConfigurationError) as exc:
            failures.append((str(path), f"{type(exc).__name__}: {exc}"))
            print(f"{path}: FAILED ({failures[-1][1]})", file=sys.stderr)
            continue
        if out is None:
            reason = "no column matches the model's attributes"
            failures.append((str(path), reason))
            print(f"{path}: FAILED ({reason})", file=sys.stderr)
            continue
        stats = detector.inference_stats
        print(f"{path}: {out.n_rows} suspicious cells ({stats.n_unique}/"
              f"{stats.n_rows} unique, {stats.cache_hits} cache hits)",
              file=sys.stderr)
        if args.out_dir:
            target = Path(args.out_dir)
            target.mkdir(parents=True, exist_ok=True)
            dest = target / f"{Path(path).stem}.errors.csv"
            write_csv(out, dest)
            print(f"  written to {dest}", file=sys.stderr)
        else:
            print(out.preview(min(out.n_rows, 20)))
    cache = detector.prediction_cache
    total = detector.trainer.total_inference_stats
    print(f"served {len(args.inputs) - len(failures)}/{len(args.inputs)} "
          f"files: {total.n_rows} cells, {total.n_evaluated} network "
          f"forwards, cache hit rate {cache.hit_rate:.1%} "
          f"({cache.hits} hits / {cache.misses} misses, "
          f"{len(cache)} entries)", file=sys.stderr)
    if failures:
        print(f"{len(failures)} file(s) failed:", file=sys.stderr)
        for path, reason in failures:
            print(f"  {path}: {reason}", file=sys.stderr)
    return 1 if failures else 0


def cmd_analyze(args) -> int:
    from repro.experiments import (
        attribute_breakdown,
        hardest_attributes,
        render_breakdown,
    )
    detector, dirty = _fit_detector(args)
    result = detector.evaluate()
    breakdowns = attribute_breakdown(result, detector.split.test.labels)
    print(render_breakdown(breakdowns))
    hardest = hardest_attributes(breakdowns)
    if hardest:
        print("\nhardest attributes (errors present, worst F1 first):")
        for b in hardest[:5]:
            print(f"  {b.attribute:<20} F1={b.report.f1:.2f} "
                  f"({b.n_errors} errors / {b.n_cells} cells)")
    return 0


def cmd_telemetry_summarize(args) -> int:
    try:
        text = telemetry.summarize_jsonl(args.path)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


def cmd_benchmark(args) -> int:
    pair = load(args.dataset, n_rows=args.rows, seed=args.seed)
    print(f"{args.dataset}: {pair.dirty.shape}, "
          f"error rate {pair.measured_error_rate():.2%}", file=sys.stderr)
    # Durability flags switch the runner to graceful degradation: a task
    # that exhausts its retries becomes a failure record instead of
    # aborting the sweep, and --resume makes the re-invocation cheap.
    durable = bool(args.resume or args.max_retries)
    durability = dict(n_workers=args.workers, max_retries=args.max_retries,
                      journal_path=args.resume, fail_fast=not durable)
    comparison = bool(getattr(args, "detectors", None))
    if comparison:
        names = tuple(n.strip() for n in args.detectors.split(",") if n.strip())
        unknown = [n for n in names if n not in list_detectors()]
        if unknown:
            print(f"error: unknown detectors {unknown}; registered: "
                  f"{list(list_detectors())}", file=sys.stderr)
            return 1
        results = run_detector_comparison(
            pair, detectors=names, n_runs=args.runs,
            n_label_tuples=args.tuples, epochs=args.epochs,
            base_seed=args.seed, **durability)
    else:
        results = {args.arch: run_experiment(
            pair, detector=args.arch, n_runs=args.runs,
            n_label_tuples=args.tuples, epochs=args.epochs,
            model_config=ModelConfig(cell_type=args.cell), **durability)}
    failures = [(name, failure) for name, result in results.items()
                for failure in result.failures]
    for name, failure in failures:
        print(f"FAILED task {failure.task_index} ({name}, "
              f"seed {failure.seed}) after {failure.attempts} "
              f"attempt(s): {failure.error_type}: {failure.error}",
              file=sys.stderr)
    completed = {name: result for name, result in results.items()
                 if result.runs}
    if failures:
        n_done = sum(len(result.runs) for result in completed.values())
        print(f"{len(failures)} of {len(failures) + n_done} runs failed; "
              f"aggregates below cover the completed runs only"
              + (" (re-invoke with the same --resume journal to retry)"
                 if args.resume else ""),
              file=sys.stderr)
    if not completed:
        print("error: every run failed; nothing to aggregate",
              file=sys.stderr)
        return 1
    if comparison:
        print(render_comparison(completed))
    else:
        row = completed[args.arch].as_row()
        print(f"P  = {row['P']:.3f} ± {row['P_sd']:.3f}")
        print(f"R  = {row['R']:.3f} ± {row['R_sd']:.3f}")
        print(f"F1 = {row['F1']:.3f} ± {row['F1_sd']:.3f}")
        print(f"train time = {row['seconds']:.1f}s ± {row['seconds_sd']:.1f}s")
    return 1 if failures else 0


def cmd_faults_list(args) -> int:
    from repro.faults import describe_points

    print(describe_points())
    return 0


def cmd_faults_run(args) -> int:
    """Run one benchmark experiment under a fault plan (chaos mode).

    The plan is installed in this process; the workers of a pooled run
    are forked from it, so they inherit it.  Exit code 0 means the sweep
    completed (faults absorbed or not triggered); a kill fault escaping
    to the top level exits like the crash it simulates, after pointing
    at the --resume journal.
    """
    from repro.faults import FaultPlan, WorkerKilled, clear_plan, install_plan

    plan = FaultPlan.load(args.plan)
    print(f"fault plan: {len(plan.specs)} spec(s) from {args.plan}",
          file=sys.stderr)
    install_plan(plan)
    try:
        code = cmd_benchmark(args)
    except WorkerKilled as exc:
        print(f"sweep killed by injected fault: {exc}", file=sys.stderr)
        if args.resume:
            print(f"completed tasks are journalled in {args.resume}; "
                  f"re-invoke to resume", file=sys.stderr)
        return 1
    finally:
        clear_plan()
        # Per-spec trigger counts for this process (pooled workers count
        # their own triggers; those surface via faults.* telemetry).
        for spec, count in zip(plan.specs, plan.triggers()):
            if count:
                print(f"fault triggered: {spec.point} [{spec.action}] "
                      f"x{count}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Error detection with bidirectional RNNs (EDBT 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_datasets = sub.add_parser("datasets",
                                help="show the Table 2 dataset overview")
    p_datasets.add_argument("--rows", type=int, default=200,
                            help="rows per generated dataset (default: 200)")
    p_datasets.add_argument("--seed", type=int, default=0)
    p_datasets.set_defaults(fn=cmd_datasets)

    p_detect = sub.add_parser(
        "detect",
        help="detect errors in a CSV pair, or in real unlabeled files "
             "(folder/CSV/SQLite) via the ingestion layer")
    p_detect.add_argument("path", nargs="?", metavar="PATH",
                          help="file or folder to ingest and score without "
                               "labels (encoding/dialect sniffing, SQLite "
                               "extraction, analyzer weak labels)")
    p_detect.add_argument("--dirty", help="dirty CSV path (labeled mode)")
    p_detect.add_argument("--clean",
                          help="clean CSV path (labels for sampled tuples)")
    p_detect.add_argument("--out", help="write flagged cells to this CSV")
    p_detect.add_argument("--save", help="save the fitted model (.npz)")
    p_detect.add_argument("--model",
                          help="score PATH with this saved detector instead "
                               "of training on analyzer weak labels")
    p_detect.add_argument("--all-cells", action="store_true",
                          help="with PATH: write every cell's score, not "
                               "just the flagged ones")
    _add_training_flags(p_detect)
    _add_telemetry_flag(p_detect)
    p_detect.set_defaults(fn=cmd_detect)

    p_repair = sub.add_parser("repair",
                              help="detect and repair errors in a CSV pair")
    p_repair.add_argument("--dirty", required=True)
    p_repair.add_argument("--clean", required=True)
    p_repair.add_argument("--out", required=True,
                          help="write the repaired table here")
    _add_training_flags(p_repair)
    _add_telemetry_flag(p_repair)
    p_repair.set_defaults(fn=cmd_repair)

    p_predict = sub.add_parser(
        "predict", help="flag cells of a CSV with a saved model (no training)")
    p_predict.add_argument("--model", required=True,
                           help="detector archive from 'detect --save'")
    p_predict.add_argument("--dirty", required=True)
    p_predict.add_argument("--out", help="write flagged cells to this CSV")
    _add_serving_flags(p_predict)
    _add_telemetry_flag(p_predict)
    p_predict.set_defaults(fn=cmd_predict)

    p_serve = sub.add_parser(
        "serve",
        help="batch-score many CSVs with one saved model (the prediction "
             "cache persists across files), or run the long-lived scoring "
             "daemon with --daemon")
    p_serve.add_argument("--model", required=True,
                         help="detector archive from 'detect --save'")
    p_serve.add_argument("inputs", nargs="*", metavar="CSV",
                         help="dirty CSV files to score in order "
                              "(batch mode; omit with --daemon)")
    p_serve.add_argument("--out-dir",
                         help="write one <name>.errors.csv per input here")
    p_serve.add_argument("--daemon", action="store_true",
                         help="run the long-lived JSON-lines socket daemon "
                              "(micro-batching, incremental re-scoring, "
                              "hot-swap model registry)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="daemon bind host (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="daemon bind port (default: 0 = pick a free "
                              "port, printed at startup)")
    p_serve.add_argument("--max-batch-rows", type=int, default=256,
                         help="micro-batch size bound in feature rows "
                              "(default: 256)")
    p_serve.add_argument("--batch-delay-ms", type=float, default=4.0,
                         help="micro-batch deadline in milliseconds "
                              "(default: 4.0)")
    p_serve.add_argument("--max-queue-rows", type=int, default=4096,
                         help="admission-control bound: reject (429) once "
                              "this many rows are queued (default: 4096)")
    _add_serving_flags(p_serve)
    _add_telemetry_flag(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    p_analyze = sub.add_parser(
        "analyze", help="per-attribute error analysis on a CSV pair")
    p_analyze.add_argument("--dirty", required=True)
    p_analyze.add_argument("--clean", required=True)
    _add_training_flags(p_analyze)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_bench = sub.add_parser("benchmark",
                             help="run one benchmark dataset end to end")
    _add_benchmark_flags(p_bench)
    p_bench.set_defaults(fn=cmd_benchmark)

    p_faults = sub.add_parser(
        "faults", help="fault-injection harness (chaos testing)")
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_flist = faults_sub.add_parser(
        "list", help="list the named injection points")
    p_flist.set_defaults(fn=cmd_faults_list)
    p_frun = faults_sub.add_parser(
        "run",
        help="run one benchmark under a JSON fault plan; combine with "
             "--resume to exercise crash recovery")
    p_frun.add_argument("--plan", required=True,
                        help="JSON fault-plan file (see repro.faults)")
    _add_benchmark_flags(p_frun)
    p_frun.set_defaults(fn=cmd_faults_run)

    p_tele = sub.add_parser(
        "telemetry", help="inspect telemetry JSON-lines files")
    tele_sub = p_tele.add_subparsers(dest="telemetry_command", required=True)
    p_summarize = tele_sub.add_parser(
        "summarize", help="aggregate a --telemetry-out JSON-lines file")
    p_summarize.add_argument("path",
                             help="file written by --telemetry-out")
    p_summarize.set_defaults(fn=cmd_telemetry_summarize)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    with _telemetry_session(args):
        return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
