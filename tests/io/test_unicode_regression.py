"""Unicode regressions across the whole train/save/predict surface.

The ingestion layer guarantees tables contain no surrogates (strict
decodes with a Latin-1 total fallback; SQLite blobs decode with
replacement), but the downstream pipeline must hold up its end: the
character vocabulary, the ``.npz`` round trip and both compute backends
have to treat non-ASCII text -- accents, CJK, astral-plane emoji --
byte-identically.  Plus the latent bug this suite pinned: ``read_csv``
used to leak ``UnicodeDecodeError`` (a ``ValueError``) on non-UTF-8
files, escaping every ``except (OSError, DataError)`` recovery path,
e.g. the ``repro serve`` batch loop.
"""

import numpy as np
import pytest

from repro.datasets.base import DatasetPair
from repro.errors import CSVFormatError
from repro.models import ErrorDetector, ModelConfig, TrainingConfig
from repro.models.serialization import (
    encode_values_for,
    load_detector,
    save_detector,
)
from repro.nn.backend import reset_backend, use_backend
from repro.table import Table, read_csv, write_csv

TINY = ModelConfig(char_embed_dim=6, value_units=5, num_layers=1,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)

#: Accents (2-byte UTF-8), CJK (3-byte), astral emoji (4-byte,
#: surrogate pair in UTF-16).
UNICODE_ROWS = ["Zürich", "café", "渋谷", "Перо", "🌍ok", "naïve",
                "Ḿünchen", "øre", "東京都", "🎉🎉", "plain", "Ωmega"]


def _unicode_pair():
    clean = Table({
        "city": UNICODE_ROWS,
        "code": [f"C-{i}" for i in range(len(UNICODE_ROWS))],
    })
    dirty_values = list(UNICODE_ROWS)
    dirty_values[0] = "Zurich#"
    dirty_values[3] = "Пepo"  # mixed-script typo
    dirty = Table({
        "city": dirty_values,
        "code": [f"C-{i}" for i in range(len(UNICODE_ROWS))],
    })
    return dirty, clean


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    reset_backend()


def _fit(dirty, clean, seed=0):
    detector = ErrorDetector(n_label_tuples=4, model_config=TINY,
                             training_config=TrainingConfig(epochs=2),
                             seed=seed)
    detector.fit(DatasetPair("unicode", dirty, clean))
    return detector


def test_non_ascii_vocabulary_round_trips(tmp_path):
    """Train on non-ASCII data, save, load: the restored detector
    scores previously unseen non-ASCII values identically."""
    dirty, clean = _unicode_pair()
    detector = _fit(dirty, clean)
    probe_values = ["Zürich", "🌍ok", "Ωmega", "new🎉"]
    probe_attrs = ["city"] * len(probe_values)
    before = detector.trainer.predict_proba(
        encode_values_for(detector, probe_values, probe_attrs))

    path = tmp_path / "unicode.npz"
    save_detector(detector, path)
    restored = load_detector(path)
    after = restored.trainer.predict_proba(
        encode_values_for(restored, probe_values, probe_attrs))
    np.testing.assert_array_equal(before, after)


def test_backends_agree_on_unicode(tmp_path):
    """fused and graph backends score non-ASCII cells byte-identically
    from the same saved weights.

    (Training is only *allclose* across backends -- gradients reduce in
    different orders -- so the detector is fit once and each backend
    loads the identical ``.npz``; the forward pass must then agree
    bit-for-bit, astral emoji included.)
    """
    dirty, clean = _unicode_pair()
    probe_values = ["渋谷", "Пepo", "🌍ok"]
    probe_attrs = ["city"] * len(probe_values)
    path = tmp_path / "unicode.npz"
    save_detector(_fit(dirty, clean), path)
    results = {}
    for backend in ("fused", "graph"):
        with use_backend(backend):
            restored = load_detector(path)
            results[backend] = restored.trainer.predict_proba(
                encode_values_for(restored, probe_values, probe_attrs))
    np.testing.assert_array_equal(results["fused"], results["graph"])


def test_astral_chars_survive_csv_round_trip(tmp_path):
    table = Table({"t": UNICODE_ROWS})
    path = tmp_path / "u.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert list(back.column("t").values) == UNICODE_ROWS


def test_read_csv_wraps_decode_errors(tmp_path):
    """Non-UTF-8 bytes raise CSVFormatError, not UnicodeDecodeError.

    UnicodeDecodeError is a ValueError: callers guarding file reads
    with ``except (OSError, DataError)`` -- the serve batch loop, the
    benchmark runner -- would crash on a Latin-1 file otherwise.
    """
    path = tmp_path / "latin.csv"
    path.write_bytes(b"id,city\n1,Z\xfcrich\n")
    with pytest.raises(CSVFormatError) as exc_info:
        read_csv(path)
    assert not isinstance(exc_info.value, UnicodeDecodeError)
    assert "utf-8" in str(exc_info.value)


def test_serve_batch_loop_survives_latin1_file(tmp_path, capsys):
    """End to end: a Latin-1 CSV in `repro serve` is reported as a
    failed file (exit 1) instead of crashing the loop."""
    from repro.cli import main

    dirty, clean = _unicode_pair()
    detector = _fit(dirty, clean)
    model = tmp_path / "m.npz"
    save_detector(detector, model)

    good = tmp_path / "good.csv"
    write_csv(dirty, good)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"city,code\nZ\xfcrich,C-0\n")

    code = main(["serve", "--model", str(model), str(bad), str(good)])
    assert code == 1  # the bad file failed...
    err = capsys.readouterr().err
    assert "bad.csv: FAILED" in err
    assert "good.csv:" in err  # ...but the good file was still served


def test_ingested_latin1_scores_through_saved_model(tmp_path):
    """The repro.io route: a Latin-1 file ingests (no mojibake for
    genuine Latin-1) and scores through encode_values_for."""
    from repro.io import read_delimited

    dirty, clean = _unicode_pair()
    detector = _fit(dirty, clean)

    path = tmp_path / "latin.csv"
    path.write_bytes("city,code\nZürich,C-0\ncafé,C-1\n".encode("latin-1"))
    ingested = read_delimited(path)
    assert ingested.encoding == "latin-1"
    values = [str(v) for v in ingested.table.column("city").values]
    assert values == ["Zürich", "café"]
    probabilities = detector.trainer.predict_proba(
        encode_values_for(detector, values, ["city"] * len(values)))
    assert probabilities.shape == (2, 2)
    assert np.isfinite(probabilities).all()
