"""``repro detect PATH`` end to end on a small seeded folder.

The folder mixes what the ingestion layer must cope with: two delimited
tables with different delimiters and encodings (one with a ragged row),
a two-table SQLite file, a binary file named ``.csv`` and a one-row
table that takes the analyzer-only path.  Every table is at most 80
rows and trains for one epoch.

The weak-label and ``--model`` ``--out`` CSVs must match the committed
files in ``detect_expected/`` byte for byte.  If a change is meant to
move them, regenerate with::

    PYTHONPATH=src:. python tests/io/test_detect_path.py

and commit the diff.
"""

from __future__ import annotations

import csv
import io
import sqlite3
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load
from repro.io import detect_path, ingest_path

EXPECTED = Path(__file__).with_name("detect_expected")
SEED = 3
JUNK = "backup_2019.csv"
#: (file, dataset, rows, delimiter, encoding, ragged row or None)
DELIMITED = (("beers.csv", "beers", 60, ";", "utf-8-sig", 17),
             ("hospital.tsv", "hospital", 50, "\t", "utf-16", None))
SQLITE = (("flights", 40), ("rayyan", 40))


def _cells(table) -> list[list[str]]:
    return [["" if v is None else str(v) for v in table.column(name).values]
            for name in table.column_names]


def write_folder(root: Path) -> Path:
    """Write the input folder under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    for file, dataset, rows, delimiter, encoding, ragged in DELIMITED:
        dirty = load(dataset, n_rows=rows, seed=SEED).dirty
        columns = _cells(dirty)
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
        writer.writerow(dirty.column_names)
        for i in range(rows):
            record = [column[i] for column in columns]
            writer.writerow(record[:-1] if i == ragged else record)
        (root / file).write_bytes(buffer.getvalue().encode(encoding))
    with sqlite3.connect(root / "warehouse.sqlite") as connection:
        for dataset, rows in SQLITE:
            dirty = load(dataset, n_rows=rows, seed=SEED).dirty
            names = ", ".join(f'"{n}" TEXT' for n in dirty.column_names)
            connection.execute(f'CREATE TABLE "{dataset}" ({names})')
            marks = ", ".join("?" for _ in dirty.column_names)
            connection.executemany(
                f'INSERT INTO "{dataset}" VALUES ({marks})',
                zip(*_cells(dirty)))
    connection.close()
    (root / "single.csv").write_text("city,zip\nZurich,8000\n",
                                     encoding="utf-8")
    body = bytearray(np.random.default_rng(SEED).integers(
        1, 256, size=4096, dtype=np.uint8).tobytes())
    body[::9] = bytes(len(body[::9]))
    (root / JUNK).write_bytes(b"\x89BAK\r\n\x1a\n" + bytes(body))
    return root


def write_model(root: Path) -> Path:
    """A one-epoch ETSB archive trained on a beers pair."""
    pair = load("beers", n_rows=60, seed=SEED + 1)
    paths = {}
    for side in ("dirty", "clean"):
        paths[side] = root / f"train_{side}.csv"
        with paths[side].open("w", encoding="utf-8", newline="") as handle:
            table = getattr(pair, side)
            writer = csv.writer(handle)
            writer.writerow(table.column_names)
            writer.writerows(zip(*_cells(table)))
    model = root / "model.npz"
    run(["detect", "--dirty", str(paths["dirty"]), "--clean",
         str(paths["clean"]), "--save", str(model), "--epochs", "1",
         "--seed", str(SEED), "--out", str(root / "train_flags.csv")])
    return model


def run(argv: list[str]) -> str:
    """Run the CLI in process; returns its stderr."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return err.getvalue()


def detect_argv(folder: Path, out: Path, *extra: str) -> list[str]:
    return ["detect", str(folder), "--epochs", "1", "--seed", str(SEED),
            "--out", str(out), *extra]


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("detect")
    folder = write_folder(root / "folder")
    model = write_model(root)
    out = {name: root / f"{name}.csv" for name in ("flagged", "all", "model")}
    stderr = run(detect_argv(folder, out["flagged"]))
    run(detect_argv(folder, out["all"], "--all-cells"))
    run(["detect", str(folder), "--model", str(model),
         "--out", str(out["model"])])
    tables = {t.name: t.table for t in ingest_path(folder).tables}
    return folder, model, out, stderr, tables


def test_junk_file_skipped(runs):
    folder, _, out, stderr, tables = runs
    assert f"skipped {folder / JUNK}: " in stderr
    assert sorted(tables) == ["beers", "hospital", "single",
                              "warehouse:flights", "warehouse:rayyan"]
    assert {row["table"] for row in read_rows(out["all"])} == set(tables)


def test_ragged_row_recovered(runs):
    _, _, _, stderr, tables = runs
    assert "1 ragged rows recovered" in stderr
    assert tables["beers"].n_rows == 60
    assert tables["beers"].column(tables["beers"].column_names[-1])[17] \
        is None


@pytest.mark.parametrize("name", ["flagged", "all", "model"])
def test_values_are_the_ingested_cells(runs, name):
    _, _, out, _, tables = runs
    rows = read_rows(out[name])
    assert rows
    for row in rows:
        raw = tables[row["table"]].column(row["attribute"])[int(row["row"])]
        assert row["value"] == ("" if raw is None else raw)


def test_all_cells_once_in_cell_order(runs):
    """Trained tables list their cells tuple by tuple; the one-row table
    (analyzer verdicts) column by column."""
    _, _, out, _, tables = runs
    emitted: dict[str, list] = {}
    for row in read_rows(out["all"]):
        emitted.setdefault(row["table"], []).append(
            (int(row["row"]), row["attribute"]))
    for name, table in tables.items():
        names, n = table.column_names, table.n_rows
        if n >= 2:
            want = [(i, a) for i in range(n) for a in names]
        else:
            want = [(i, a) for a in names for i in range(n)]
        assert emitted[name] == want, name


def test_model_scores_only_known_columns(runs):
    _, model, out, _, tables = runs
    from repro.models.serialization import load_detector
    known = set(load_detector(model).prepared.attributes)
    rows = read_rows(out["model"])
    assert {row["table"] for row in rows} <= {
        name for name, t in tables.items() if known & set(t.column_names)}
    assert all(row["attribute"] in known for row in rows)


def test_flagged_in_score_order_ties_in_cell_order(runs):
    folder, _, out, _, _ = runs
    _, outcomes = detect_path(folder, epochs=1, seed=SEED)
    assert any(len(o.flagged) for o in outcomes)
    for outcome in outcomes:
        order = outcome.flagged
        assert outcome.flags[order].all()
        assert order.size == outcome.flags.sum()
        scores = outcome.scores[order]
        assert (np.diff(scores) <= 0).all()
        tied = np.diff(scores) == 0
        assert (np.diff(order)[tied] > 0).all()
    printed: dict[str, list[float]] = {}
    for row in read_rows(out["flagged"]):
        printed.setdefault(row["table"], []).append(float(row["score"]))
    for scores in printed.values():
        assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("name", ["flagged", "model"])
def test_out_csv_matches_expected(runs, name):
    _, _, out, _, _ = runs
    assert out[name].read_bytes() == (EXPECTED / f"{name}.csv").read_bytes(), (
        f"repro detect --out drifted for {name}.csv; if intentional, "
        "regenerate with `python tests/io/test_detect_path.py`")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        folder = write_folder(root / "folder")
        model = write_model(root)
        EXPECTED.mkdir(exist_ok=True)
        run(detect_argv(folder, EXPECTED / "flagged.csv"))
        run(["detect", str(folder), "--model", str(model),
             "--out", str(EXPECTED / "model.csv")])
    print(f"wrote {EXPECTED}", file=sys.stderr)
