"""The program's side of the benchmark: code that runs inside its process.

    program.py ready                      import the CLI, print the time, exit
    program.py batch SPEC.json OUT.json   run CLI passes in-process
    program.py serve OUT.json ARGS...     traced ``repro serve --daemon``

``batch`` runs ``repro.cli.main(argv)`` for every argv of every pass
in the spec, and writes each call's wall time, exit code and captured
output.  It also times the spec's number of cold starts (``ready``
processes), spread evenly from before the first call to after the
last, so that ``setup_s`` samples the whole run and not one moment of
it.  With ``"trace": true`` it first installs the span wrappers.
``serve`` installs the daemon-side wrappers, then hands ``ARGS`` to
``repro.cli.main``; spans are written when the daemon exits.  Both
report the process's peak resident set (VmHWM).
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The tracing module loads only in traced modes, so the ``ready``
# cold start imports nothing but the program.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cold_start() -> float:
    """One ``setup_s`` sample: a fresh interpreter's start until
    ``repro.cli`` is imported and the first CLI call could run."""
    started = time.monotonic()
    done = subprocess.run([sys.executable, __file__, "ready"],
                          capture_output=True, text=True, timeout=150,
                          check=True)
    return float(done.stdout.split()[-1]) - started


def _import_cli() -> float:
    started = time.perf_counter()
    import repro.cli  # noqa: F401
    return time.perf_counter() - started


def _install(targets):
    from perfbench import tracing
    recorder = tracing.Recorder()
    for target, name, on_enter, on_exit in targets:
        recorder.install(target, name, on_enter, on_exit)
    return recorder


def run_batch(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import_s = _import_cli()
    import repro.cli
    recorder = None
    if spec["trace"]:
        from perfbench.tracing import BATCH_TARGETS
        recorder = _install(BATCH_TARGETS)
    todo = [(n_pass, index, argv)
            for n_pass, argvs in enumerate(spec["passes"])
            for index, argv in enumerate(argvs)]
    # Cold start k runs before call at[k]; len(todo) means after the last.
    n_starts = spec["cold_starts"]
    at = [round(k * len(todo) / max(1, n_starts - 1))
          for k in range(n_starts)]
    setup_s, calls = [], []
    for position, (n_pass, index, argv) in enumerate(todo):
        setup_s += [cold_start() for k in at if k == position]
        out, err = io.StringIO(), io.StringIO()
        call_started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = repro.cli.main(argv)
            except Exception:  # noqa: BLE001 -- a failed call is a result
                traceback.print_exc()
                code = -1
        calls.append({"pass": n_pass, "index": index,
                      "wall_s": time.perf_counter() - call_started,
                      "code": code, "stdout": out.getvalue(),
                      "stderr": err.getvalue()})
    setup_s += [cold_start() for k in at if k == len(todo)]
    result = {"calls": calls, "import_s": import_s, "setup_s": setup_s,
              "peak_rss_mb": peak_rss_mb()}
    if recorder is None:
        Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    else:
        recorder.dump(out_path, **result)
    return 0


def run_serve(out_path: str, argv: list[str]) -> int:
    import_s = _import_cli()
    import repro.cli
    from perfbench.tracing import SERVE_TARGETS
    recorder = _install(SERVE_TARGETS)
    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(out_path, import_s=import_s,
                      peak_rss_mb=peak_rss_mb())


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "ready":
        _import_cli()
        print(time.monotonic(), flush=True)
        return 0
    if mode == "batch":
        return run_batch(argv[1], argv[2])
    if mode == "serve":
        return run_serve(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
