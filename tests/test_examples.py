"""Smoke runs of the examples.

The examples call the library directly, so an API change that breaks
them shows up here rather than in a user's terminal.  Each runs as a
script at a toy scale and must exit 0 and print its table or report.
(``clean_your_own_csv.py`` has no size flags and is not run.)
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _run_example(script: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


@pytest.mark.parametrize("script, args, header, rows", [
    ("baseline_shootout.py",
     ("--rows", "40", "--epochs", "1", "--runs", "1"),
     f"{'system':<14} {'P':>6} {'R':>6} {'F1':>6} {'F1 s.d.':>8} "
     f"{'time [s]':>9}",
     ("Raha (ours)", "ETSB-RNN")),
    ("sampler_comparison.py",
     ("--rows", "40", "--epochs", "1", "--runs", "1", "--tuples", "6"),
     f"{'sampler':<12} {'F1':>6} {'s.d.':>6} {'P':>6} {'R':>6}",
     ("RandomSet", "RahaSet", "DiverSet")),
])
def test_example_prints_its_table(script, args, header, rows):
    lines = _run_example(script, *args).splitlines()
    assert header in lines
    body = lines[lines.index(header) + 1:]
    for row in rows:
        assert any(line.startswith(row) for line in body), (row, body)


@pytest.mark.parametrize("script, args, prefixes", [
    ("quickstart.py",
     ("--rows", "40", "--epochs", "1", "--tuples", "6"),
     ("Held-out evaluation over", "  F1-score:", "Detected")),
    ("error_analysis.py",
     ("--rows", "40", "--epochs", "1"),
     ("overall:", "Per-attribute breakdown:",
      "Recall per injected error type:")),
    ("detect_and_repair.py",
     ("--rows", "40", "--epochs", "1"),
     ("  model alone:", "  model + fusion:",
      "  repair accuracy vs ground truth:")),
])
def test_example_prints_its_report(script, args, prefixes):
    lines = _run_example(script, *args).splitlines()
    for prefix in prefixes:
        assert any(line.startswith(prefix) for line in lines), (prefix, lines)
