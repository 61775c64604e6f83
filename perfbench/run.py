#!/usr/bin/env python3
"""End-to-end benchmark of the repro package, one workload per run.

    python3 perfbench/run.py --workload paper-fit --seed 1 --seconds 20 --trace 0

Workloads: ``paper-fit`` and ``detect-folder``, which BENCHMARK.json
lists, and ``serve-mixed``, which it does not list yet (see README.md
for why each exists and what every metric means).  The program is
always the checkout's own ``src/`` tree, reached through its stable
surfaces: ``repro.cli.main`` and the ``repro serve --daemon`` socket.
A report goes to stderr; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Noise controls for this process and every process it starts: one
#: BLAS/OpenMP thread (nproc is 2, and the generator, the daemon and
#: the program must not fight over the cores), fixed string hashing.
NOISE_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PROGRAM = BENCH / "program.py"
SRC = ROOT / "src"

#: The workloads BENCHMARK.json lists.  Each prints END_TO_END with
#: ``--trace 0`` and PER_LAYER with ``--trace 1``.
WORKLOADS = ("paper-fit", "detect-folder")
#: Runnable by hand but not listed: its byte-equal offline check fails
#: until the program's replies stop depending on micro-batch
#: composition (README.md, "Known program defect").
SERVE = "serve-mixed"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "cells/s",
    "f1": "ratio",
}

SERVE_END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "write_p50_ms": "ms",
    "max_rps": "1/s",
}

PER_LAYER = {
    "nn.fit_s": "s",
    "nn.kernel_fwd_s": "s",
    "nn.kernel_bwd_s": "s",
    "nn.head_s": "s",
    "nn.optim_s": "s",
    "nn.batches": "count",
    "dataprep.prepare_s": "s",
    "dataprep.encode_s": "s",
    "sampling.select_s": "s",
    "io.discover_s": "s",
    "io.read_s": "s",
    "io.analyze_s": "s",
    "io.conform_s": "s",
    "io.files": "count",
    "io.skipped": "count",
    "io.encoding_fallbacks": "count",
    "io.rows_recovered": "count",
    "inference.predict_s": "s",
    "inference.kernel_fwd_s": "s",
    "inference.rows": "count",
    "inference.forward_rows": "count",
    "inference.unique_ratio": "ratio",
    "experiments.driver_self_s": "s",
    "datasets.generate_s": "s",
    "setup.import_s": "s",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
    "trace.missing_layers": "count",
}

#: serve-mixed's traced run adds the layers only the daemon runs.
SERVE_PER_LAYER = {
    **PER_LAYER,
    "inference.cache_hit_rate": "ratio",
    "serving.handle_ms.score": "ms",
    "serving.handle_ms.update": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.batch_items": "count",
    "serving.encode_ms": "ms",
    "serving.rescored_rows": "rows",
    "client.wire_ms": "ms",
    "client.late_ms": "ms",
    "models.load_archive_s": "s",
}

#: Cold starts per run, spread from before the first measured call to
#: after the last (program.py batch); ``setup_s`` is their median.
SETUP_STARTS = 12
#: Daemon cold starts per serve-mixed run (each also loads the session).
DAEMON_STARTS = 5
#: Shares of ``--seconds`` for serve-mixed's warm-up, open loop (A)
#: and closed loop (B).
SERVE_SPLIT = (0.1, 0.45, 0.45)
#: Nominal seconds of one pass on the reference host (paper-fit: the 18
#: fits; detect-folder: one call).
PASS_SECONDS = {"paper-fit": 20.0, "detect-folder": 10.0}
#: Every this-many-th score reply is re-scored offline and compared.
SAMPLE_EVERY = 25
CHILD_TIMEOUT = 150


def spawn_options() -> dict:
    """Options for every spawned program process: the noise controls,
    the checkout's sources, none of the program's REPRO_* switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(NOISE_ENV)
    env["PYTHONPATH"] = str(SRC)
    return {"env": env, "cwd": ROOT}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def f1_score(flagged: set, truth: set) -> float:
    hits = len(flagged & truth)
    if not hits:
        return 0.0
    precision, recall = hits / len(flagged), hits / len(truth)
    return 2 * precision * recall / (precision + recall)


@dataclass
class Checks:
    """Output invariants, counted per phase; a violation is a failed op."""

    phases: dict[str, list[int]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    def check(self, phase: str, ok: bool, message: str = "") -> bool:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += 1
        if not ok:
            counts[1] += 1
            self.violations.append(f"{phase}: {message}")
        return ok

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


def report(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- processes ---------------------------------------------------------------------


def n_passes(workload: str, seconds: float) -> int:
    """Passes a run makes: fixed from ``seconds`` and the workload's
    nominal pass time on the reference host, not from a clock, so a slow
    or a fast stretch of the host never changes how much work a run does."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def batch_child(work: Path, passes: list[list[list[str]]], trace: bool,
                cold_starts: int = 0) -> dict:
    """Run CLI passes (each a list of argvs) in one fresh program
    process (program.py batch), with ``cold_starts`` set-up samples
    spread over them."""
    tag = "traced" if trace else "plain"
    spec, out = work / f"spec-{tag}.json", work / f"out-{tag}.json"
    spec.write_text(json.dumps({"passes": passes, "trace": trace,
                                "cold_starts": cold_starts}),
                    encoding="utf-8")
    done = subprocess.run([sys.executable, str(PROGRAM), "batch", str(spec),
                           str(out)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, **spawn_options())
    if done.returncode != 0:
        raise RuntimeError(f"program process failed ({done.returncode}): "
                           f"{done.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def trace_summary(traced: dict, untraced_wall: float,
                  traced_wall: float) -> dict[str, float]:
    from perfbench import tracing
    spans = tracing.load_spans(traced["spans"])
    metrics = {name: 0.0 for name in SERVE_PER_LAYER}
    metrics.update(tracing.layer_metrics(spans))
    metrics["setup.import_s"] = traced["import_s"]
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1)
    metrics["trace.missing_layers"] = float(len(traced["missing"]))
    for target in traced["missing"]:
        report(f"missing layer: {target} (its metrics read 0)")
    return metrics


# -- paper-fit ---------------------------------------------------------------------

_FIT_LINES = ("P  = ", "R  = ", "F1 = ")


def check_fit(result: dict, calls, checks: Checks, phase: str) -> list[float]:
    """Every call exits 0 and prints P, R and F1; repeated passes print
    the same numbers.  Returns the F1 of each call of the first pass."""
    first: dict[int, list[str]] = {}
    f1s = []
    for record in result["calls"]:
        call = calls[record["index"]]
        lines = [line for line in record["stdout"].splitlines()
                 if line.startswith(_FIT_LINES)]
        ok = checks.check(
            phase, record["code"] == 0 and len(lines) == 3,
            f"{call.dataset}/{call.arch} exited {record['code']} with "
            f"{record['stdout']!r} {record['stderr'][-300:]!r}")
        if not ok:
            continue
        if record["index"] in first:
            checks.check(f"{phase}-repeat", lines == first[record["index"]],
                         f"{call.dataset}/{call.arch} printed {lines} after "
                         f"{first[record['index']]}")
        else:
            first[record["index"]] = lines
            f1s.append(float(lines[2].split()[2]))
    return f1s


def pass_walls(result: dict) -> list[float]:
    """Wall time of each pass (the sum of its CLI calls)."""
    passes: dict[int, float] = {}
    for record in result["calls"]:
        passes[record["pass"]] = passes.get(record["pass"], 0.0) \
            + record["wall_s"]
    return list(passes.values())


def batch_metrics(result: dict, cells: int, f1: float) -> dict[str, float]:
    """End-to-end metrics of a batch workload: table cells through the
    full path over the summed wall of every CLI call."""
    report("setup samples: " + " ".join(f"{s:.4f}" for s in result["setup_s"]))
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "cells_per_s": cells / sum(pass_walls(result)),
        "f1": f1,
    }


def paper_fit(args, work: Path, checks: Checks) -> dict[str, float]:
    from perfbench import inputs
    calls = inputs.paper_fit_calls(args.seed)
    argvs = [list(call.argv) for call in calls]
    if not args.trace:
        result = batch_child(work, [argvs] * n_passes("paper-fit", args.seconds),
                             trace=False, cold_starts=SETUP_STARTS)
        f1s = check_fit(result, calls, checks, "fit")
        cells = sum(calls[r["index"]].n_cells for r in result["calls"])
        report(f"paper-fit: {len(result['calls'])} calls in "
               f"{len(result['calls']) // len(calls)} passes, "
               f"{sum(r['wall_s'] for r in result['calls']):.2f} s")
        report_table5(calls, result)
        return batch_metrics(result, cells,
                             statistics.fmean(f1s) if f1s else 0.0)
    passes = [argvs] * n_passes("paper-fit", args.seconds / 2)
    plain = batch_child(work, passes, trace=False)
    traced = batch_child(work, passes, trace=True)
    check_fit(plain, calls, checks, "fit")
    check_fit(traced, calls, checks, "fit-traced")
    return trace_summary(traced, statistics.fmean(pass_walls(plain)),
                         statistics.fmean(pass_walls(traced)))


def report_table5(calls, result: dict) -> None:
    """Per-dataset cost drivers (Table 5's model of training time) next
    to each model's median call time."""
    report("table5: dataset rows attributes alphabet max_length "
           + " ".join(f"{arch}_ms" for arch in dict.fromkeys(c.arch for c in calls)))
    for dataset in dict.fromkeys(c.dataset for c in calls):
        mine = [i for i, c in enumerate(calls) if c.dataset == dataset]
        call = calls[mine[0]]
        times = [1000 * statistics.median(r["wall_s"] for r in result["calls"]
                                          if r["index"] == i) for i in mine]
        report(f"table5: {dataset} {call.rows} {call.n_attributes} "
               f"{call.alphabet} {call.max_length} "
               + " ".join(f"{t:.0f}" for t in times))


# -- detect-folder -----------------------------------------------------------------


def detect_passes(folder, seed: int, out_dir: Path, count: int
                  ) -> list[list[list[str]]]:
    """One ``repro detect`` call per pass, writing its flags under
    ``out_dir``.  Pass ``p`` trains with seed ``seed + p``, so the run's
    F1 averages over ``count`` trainings."""
    from perfbench import inputs
    out_dir.mkdir()
    return [[["detect", str(folder.root), "--epochs", str(inputs.DETECT_EPOCHS),
              "--seed", str(seed + p), "--out", str(out_dir / f"flags-{p}.csv")]]
            for p in range(count)]


def check_detect(result: dict, folder, out_dir: Path, checks: Checks,
                 phase: str) -> list[float]:
    """Every table ingested with its rows, the junk file skipped with a
    reason, every flagged cell in range and equal to what was written.
    Returns each pass's F1 against the clean tables."""
    import csv
    f1s = []
    truth = {(name, c) for name, table in folder.tables.items()
             for c in table.truth}
    for record in result["calls"]:
        n_pass = record["pass"]
        err = record["stderr"]
        if not checks.check(phase, record["code"] == 0,
                            f"pass {n_pass} exited {record['code']}: "
                            f"{err[-500:]!r}"):
            continue
        lines = err.splitlines()
        checks.check(phase, any(line.startswith(f"skipped {folder.junk}: ")
                                and len(line) > len(f"skipped {folder.junk}: ")
                                for line in lines),
                     f"pass {n_pass}: junk file not skipped with a reason")
        out_path = out_dir / f"flags-{n_pass}.csv"
        with out_path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        flagged: dict[str, set] = {name: set() for name in folder.tables}
        bad: dict[str, int] = {name: 0 for name in folder.tables}
        for row in rows:
            table = folder.tables.get(row["table"])
            if table is None:
                checks.check(phase, False,
                             f"pass {n_pass}: flag in unknown table {row}")
                continue
            i = int(row["row"])
            j = (table.columns.index(row["attribute"])
                 if row["attribute"] in table.columns else -1)
            if j < 0 or not 0 <= i < table.n_rows \
                    or table.values[j][i] != row["value"]:
                bad[table.name] += 1
            else:
                flagged[table.name].add((i, j))
        for name, table in folder.tables.items():
            ingested = f"{name}: {table.n_rows} rows, "
            checks.check(phase, any(line.startswith(ingested) for line in lines)
                         and not bad[name],
                         f"pass {n_pass}: table {name} not ingested with "
                         f"{table.n_rows} rows, or {bad[name]} flagged cells "
                         "out of range / not round-tripped")
        found = {(name, c) for name, cells in flagged.items() for c in cells}
        f1s.append(f1_score(found, truth))
    return f1s


def detect_folder(args, work: Path, checks: Checks) -> dict[str, float]:
    from perfbench import inputs
    folder = inputs.write_detect_folder(work / "folder", args.seed)
    report(f"detect-folder: {len(folder.tables)} tables, {folder.n_cells} "
           f"cells, {folder.n_ragged} ragged rows")
    if not args.trace:
        out_dir = work / "out-plain"
        passes = detect_passes(folder, args.seed, out_dir,
                               n_passes("detect-folder", args.seconds))
        result = batch_child(work, passes, trace=False,
                             cold_starts=SETUP_STARTS)
        f1s = check_detect(result, folder, out_dir, checks, "detect")
        walls = [r["wall_s"] for r in result["calls"]]
        report(f"detect-folder: {len(walls)} calls, {sum(walls):.2f} s, "
               f"F1 per pass {f1s}")
        return batch_metrics(result, folder.n_cells * len(walls),
                             statistics.fmean(f1s) if f1s else 0.0)
    results = {}
    for tag in ("plain", "traced"):
        out_dir = work / f"out-{tag}"
        passes = detect_passes(folder, args.seed, out_dir,
                               n_passes("detect-folder", args.seconds / 2))
        results[tag] = batch_child(work, passes, trace=tag == "traced")
        check_detect(results[tag], folder, out_dir, checks, f"detect-{tag}")
    return trace_summary(results["traced"],
                         statistics.fmean(pass_walls(results["plain"])),
                         statistics.fmean(pass_walls(results["traced"])))


# -- serve-mixed -------------------------------------------------------------------


def _request(sock_file, sock, payload: dict) -> dict:
    sock.sendall(json.dumps(payload).encode() + b"\n")
    line = sock_file.readline()
    if not line:
        raise ConnectionError("daemon closed the connection")
    return json.loads(line)


@dataclass
class Daemon:
    process: subprocess.Popen
    host: str
    port: int
    setup_s: float
    loaded: dict


    def stop(self) -> None:
        """Ask for shutdown; kill if it does not exit."""
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=10) as sock, \
                    sock.makefile("rb") as replies:
                _request(replies, sock, {"op": "shutdown"})
            self.process.communicate(timeout=30)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            self.process.kill()
            self.process.communicate()


def start_daemon(command: list[str], session_csv: Path,
                 processes: list) -> Daemon:
    """Start a daemon and load the session table; ``setup_s`` runs from
    process start to the ``load_table`` reply (archive load + the
    session's initial scoring)."""
    started = time.monotonic()
    process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               **spawn_options())
    processes.append(process)
    marker = "serving daemon listening on "
    while True:
        line = process.stderr.readline()
        if not line:
            raise RuntimeError(f"daemon exited ({process.wait()}) "
                               "before listening")
        if line.startswith(marker):
            host, _, port = line[len(marker):].split()[0].rpartition(":")
            break
    with socket.create_connection((host, int(port)), timeout=60) as sock, \
            sock.makefile("rb") as replies:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        loaded = _request(replies, sock, {"op": "load_table", "session": "s",
                                          "csv": str(session_csv)})
    return Daemon(process, host, int(port), time.monotonic() - started, loaded)


@dataclass
class ServePhases:
    warm: list
    open_loop: list
    closed_loop: list
    closed_span: float
    ports: list[int]


def drive(daemon: Daemon, serve_in, seed: int, seconds: float) -> ServePhases:
    from perfbench import inputs, load
    warm_s, open_s, closed_s = (seconds * share for share in SERVE_SPLIT)
    mix = inputs.RequestMix(serve_in, seed, session="s")
    warm_schedule = mix.open_loop(inputs.SERVE_RATE, warm_s)
    open_schedule = mix.open_loop(inputs.SERVE_RATE, open_s)
    closed_payloads = [mix.next_payload()
                       for _ in range(int(1000 * closed_s))]
    payloads = iter(closed_payloads)
    connections = [load.Connection(daemon.host, daemon.port, i)
                   for i in range(inputs.N_CONNECTIONS)]
    try:
        warm = load.open_loop(connections, warm_schedule)
        measured = load.open_loop(connections, open_schedule)
        closed, span = load.closed_loop(
            connections, lambda: next(payloads, None) or mix.next_payload(),
            closed_s)
    finally:
        for connection in connections:
            connection.close()
    return ServePhases(warm, measured, closed, span,
                       [c.port for c in connections])


def check_serve(phases: ServePhases, model, checks: Checks, tag: str) -> None:
    """Replies ok; updates re-score one row without a full pass; sampled
    score replies byte-equal offline scoring with the same archive."""
    from repro.models.serialization import encode_values_for
    samples = []
    for phase, records in (("warm", phases.warm), ("open", phases.open_loop),
                           ("closed", phases.closed_loop)):
        for k, record in enumerate(records):
            name = f"{phase}{tag}"
            if not checks.check(name, record.ok,
                                f"{record.op} failed: {record.reply}"):
                continue
            if record.op == "update":
                checks.check(f"{name}-update",
                             record.reply.get("n_rescored") == 1
                             and record.reply.get("full_rescore") is False,
                             f"update re-scored {record.reply}")
            elif k % SAMPLE_EVERY == 0:
                samples.append(record)
    for record in samples:
        # Each request on its own, through the plain (non-memoised)
        # scorer, so no earlier sample's cache entry stands in for it.
        cells = record.payload["cells"]
        features = encode_values_for(model, [c["value"] for c in cells],
                                     [c["attribute"] for c in cells])
        offline = model.trainer.predict_proba(features, deduplicate=False)
        expected = json.dumps([[float(p) for p in row] for row in offline])
        checks.check(f"offline{tag}",
                     json.dumps(record.reply["probabilities"]) == expected,
                     f"score reply differs from offline scoring: "
                     f"{record.payload} -> {record.reply['probabilities']} "
                     f"vs {expected}")


def check_session(daemon: Daemon, serve_in, model_path: Path, work: Path,
                  checks: Checks) -> None:
    """load_table flags equal one-shot ``repro serve`` scoring of the
    same CSV."""
    import contextlib
    import csv
    import io

    import repro.cli
    out_dir = work / "oneshot"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = repro.cli.main(["serve", "--model", str(model_path),
                               str(serve_in.session_csv),
                               "--out-dir", str(out_dir)])
    oneshot = set()
    if checks.check("session", code == 0, f"one-shot serve exited {code}"):
        path = out_dir / f"{serve_in.session_csv.stem}.errors.csv"
        with path.open(encoding="utf-8", newline="") as handle:
            oneshot = {(int(r["row"]), r["attribute"], r["value"])
                       for r in csv.DictReader(handle)}
    loaded = daemon.loaded
    flagged = {(f["row"], f["attribute"], f["value"])
               for f in loaded.get("flagged", ())}
    checks.check("session", loaded.get("ok") is True and flagged == oneshot,
                 f"load_table flagged {len(flagged)} cells, one-shot serve "
                 f"{len(oneshot)}; differ on {len(flagged ^ oneshot)}")


def serve_mixed(args, work: Path, checks: Checks,
                processes: list) -> dict[str, float]:
    from perfbench import inputs
    from perfbench.program import peak_rss_mb
    from repro.models.serialization import load_detector
    serve_in = inputs.write_serve_inputs(work / "serve", args.seed)
    model_path = work / "serve" / "model.npz"
    trained = subprocess.run(
        [sys.executable, "-m", "repro.cli", "detect",
         "--dirty", str(serve_in.train_dirty),
         "--clean", str(serve_in.train_clean), "--save", str(model_path),
         "--epochs", str(inputs.SERVE_EPOCHS), "--seed", str(args.seed),
         "--out", str(work / "serve" / "train_flags.csv")],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        **spawn_options())
    if not checks.check("archive", trained.returncode == 0,
                        f"training the archive failed: {trained.stderr}"):
        raise RuntimeError("no archive to serve")
    model = load_detector(model_path)
    daemon_args = ["serve", "--model", str(model_path), "--daemon",
                   "--port", "0"]
    plain_command = [sys.executable, "-m", "repro.cli", *daemon_args]
    if not args.trace:
        setups = []
        for _ in range(DAEMON_STARTS - 1):
            daemon = start_daemon(plain_command, serve_in.session_csv,
                                  processes)
            setups.append(daemon.setup_s)
            daemon.stop()
        daemon = start_daemon(plain_command, serve_in.session_csv, processes)
        setups.append(daemon.setup_s)
        phases = drive(daemon, serve_in, args.seed, args.seconds)
        rss = peak_rss_mb(daemon.process.pid)
        daemon.stop()
        check_serve(phases, model, checks, "")
        check_session(daemon, serve_in, model_path, work, checks)
        latencies = [r.latency for r in phases.open_loop]
        writes = [r.latency for r in phases.open_loop if r.op == "update"]
        closed = phases.closed_loop
        report(f"serve-mixed: open loop {len(latencies)} requests "
               f"({len(writes)} updates), closed loop {len(closed)} in "
               f"{phases.closed_span:.2f} s, setup samples {setups}, "
               f"generator late p99 "
               f"{1000 * percentile([r.late for r in phases.open_loop], 99):.3f} ms")
        return {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "p50_ms": 1000.0 * statistics.median(latencies),
            "p99_ms": 1000.0 * percentile(latencies, 99),
            "write_p50_ms": 1000.0 * statistics.median(writes),
            "max_rps": len(closed) / phases.closed_span,
        }
    daemon = start_daemon(plain_command, serve_in.session_csv, processes)
    plain = drive(daemon, serve_in, args.seed, args.seconds / 2)
    daemon.stop()
    check_serve(plain, model, checks, "")
    check_session(daemon, serve_in, model_path, work, checks)
    spans_path = work / "daemon-spans.json"
    daemon = start_daemon([sys.executable, str(PROGRAM), "serve",
                           str(spans_path), *daemon_args],
                          serve_in.session_csv, processes)
    traced = drive(daemon, serve_in, args.seed, args.seconds / 2)
    daemon.stop()
    check_serve(traced, model, checks, "-traced")
    result = json.loads(spans_path.read_text(encoding="utf-8"))
    metrics = trace_summary(
        result, phases_wall(plain), phases_wall(traced))
    handled = {s[5]: s[2] - s[1] for s in result["spans"]
               if s[0] == "serving.handle" and s[5]}
    wire = [(r.done - r.sent) - handled[f"{traced.ports[r.conn]}:{r.seq}"]
            for r in traced.open_loop
            if f"{traced.ports[r.conn]}:{r.seq}" in handled]
    checks.check("traced-match", len(wire) == len(traced.open_loop),
                 f"only {len(wire)} of {len(traced.open_loop)} requests "
                 "matched a daemon span")
    metrics["client.wire_ms"] = 1000.0 * statistics.median(wire) if wire else 0.0
    metrics["client.late_ms"] = 1000.0 * percentile(
        [r.late for r in traced.open_loop], 99)
    return metrics


def phases_wall(phases: ServePhases) -> float:
    """Closed-loop wall time per request (the traced/untraced ratio is
    the tracing overhead)."""
    return phases.closed_span / len(phases.closed_loop)


# -- entry point -------------------------------------------------------------------


def declared_metrics(kind: str) -> dict[str, str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, SERVE),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before anything imports numpy in this process.
    os.environ.update(NOISE_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        report(f"error: no program sources at {SRC / 'repro'}")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "noise": {**NOISE_ENV, "repro_env_cleared": True,
                        "fresh_processes": True,
                        "cold_starts": (DAEMON_STARTS if args.workload == SERVE
                                        else SETUP_STARTS),
                        "arrivals": "poisson, seeded",
                        "tcp_nodelay": True, "warmup_share": SERVE_SPLIT[0]},
              "host": {"nproc": os.cpu_count(),
                       "python": platform.python_version()}}
    report("run record: " + json.dumps(record))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    checks, processes = Checks(), []
    try:
        if args.workload == "paper-fit":
            metrics = paper_fit(args, work, checks)
        elif args.workload == "detect-folder":
            metrics = detect_folder(args, work, checks)
        else:
            metrics = serve_mixed(args, work, checks, processes)
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == SERVE:
        units = SERVE_PER_LAYER if args.trace else SERVE_END_TO_END
    else:
        units = PER_LAYER if args.trace else END_TO_END
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        if declared is not None and declared != units:
            report(f"error: metrics {units} do not match BENCHMARK.json "
                   f"{declared}")
            return 1
    for phase, (attempted, failed) in checks.phases.items():
        report(f"phase {phase}: attempted {attempted}, failed {failed}")
    for violation in checks.violations[:20]:
        report(f"violation: {violation}")
    for name, unit in units.items():
        report(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
