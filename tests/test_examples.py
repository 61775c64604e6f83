"""Smoke runs of the examples that drive experiments.

The examples call the experiment API directly, so an API change that
breaks them shows up here rather than in a user's terminal.  Each runs
as a script at a toy scale and must exit 0 and print its table.
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
