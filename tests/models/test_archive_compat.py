"""Detector archives written by earlier code keep loading and scoring.

``archives/`` holds two tiny detectors fitted on 40 beers rows
(``dirty.csv``) and saved at commit 834539c, before the registry's
neural adapter was folded into ``ErrorDetector``:

* ``registry_etsb.npz`` -- saved through the registry's former
  ``etsb`` adapter, so it also carries the adapter's ``adapter_meta``
  config;
* ``plain_tsb.npz`` -- saved with ``save_detector``.

Next to each are its ``score_cells`` grid on ``dirty.csv``
(``*_scores.npy``) and ``repro predict``'s output for it
(``*_predict.csv``), both written by that code.  ``load_detector`` and
``repro predict`` must reproduce them byte for byte.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.detectors import get
from repro.models.serialization import load_detector, save_detector
from repro.table import read_csv

ARCHIVES = Path(__file__).with_name("archives")

#: Archive stem -> the registry family it holds.
FAMILIES = {"registry_etsb": "etsb", "plain_tsb": "tsb"}


@pytest.fixture(scope="module")
def dirty():
    return read_csv(ARCHIVES / "dirty.csv")


@pytest.mark.parametrize("stem", sorted(FAMILIES))
def test_registry_load_scores_byte_equal(stem, dirty):
    """The archive loads as its registry family's class, and
    ``predict_cells`` thresholds the pinned scores."""
    detector = load_detector(ARCHIVES / f"{stem}.npz")
    assert type(detector) is get(FAMILIES[stem])
    expected = np.load(ARCHIVES / f"{stem}_scores.npy")
    np.testing.assert_array_equal(detector.predict_cells(dirty),
                                  (expected >= 0.5).astype(np.int64))


@pytest.mark.parametrize("stem", sorted(FAMILIES))
def test_load_detector_scores_byte_equal(stem, dirty):
    detector = load_detector(ARCHIVES / f"{stem}.npz")
    assert detector.name == FAMILIES[stem]
    expected = np.load(ARCHIVES / f"{stem}_scores.npy")
    assert detector.score_cells(dirty).tobytes() == expected.tobytes()


def test_budget_comes_from_the_adapter_config_or_defaults():
    assert load_detector(ARCHIVES / "registry_etsb.npz").n_label_tuples == 6
    assert load_detector(ARCHIVES / "plain_tsb.npz").n_label_tuples == 20


@pytest.mark.parametrize("stem", sorted(FAMILIES))
def test_resaved_archive_keeps_config_and_scores(stem, dirty, tmp_path):
    """Saving a loaded archive again writes the one current format: the
    budget in the meta, no ``adapter_meta``."""
    loaded = load_detector(ARCHIVES / f"{stem}.npz")
    save_detector(loaded, tmp_path / "again.npz")
    with np.load(tmp_path / "again.npz", allow_pickle=False) as archive:
        assert "adapter_meta" not in archive.files
    again = load_detector(tmp_path / "again.npz")
    assert again.config() == loaded.config()
    assert again.fingerprint() == loaded.fingerprint()
    assert (again.score_cells(dirty).tobytes()
            == loaded.score_cells(dirty).tobytes())


@pytest.mark.parametrize("stem", sorted(FAMILIES))
def test_cli_predict_output_byte_equal(stem, tmp_path):
    out = tmp_path / "flags.csv"
    assert main(["predict", "--model", str(ARCHIVES / f"{stem}.npz"),
                 "--dirty", str(ARCHIVES / "dirty.csv"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (ARCHIVES / f"{stem}_predict.csv").read_bytes()
