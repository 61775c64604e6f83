"""Archives that still carry retired configuration keys.

Archives written while ``TrainingConfig`` had ``bucket_batches``,
``n_length_buckets`` and ``bucket_edges`` store them in the archive's
``training_config``.  They must keep loading through every entry point
and score exactly like the same model saved without them.  The retired
archive is produced by writing the keys into a freshly saved archive's
metadata.  The ensemble, which has no archive, rejects its retired
constructor keys.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load
from repro.models import ETSBDetector, TrainingConfig
from repro.models.config import RETIRED_TRAINING_KEYS, training_config_from_dict
from repro.models.serialization import (
    encode_values_for,
    load_detector,
    save_detector,
)
from repro.table import write_csv

TINY = {"char_embed_dim": 6, "value_units": 5, "num_layers": 1,
        "attr_embed_dim": 3, "attr_units": 3, "length_dense_units": 4,
        "head_units": 4}

#: What an archive written before the removal carried.
RETIRED = {"bucket_batches": True, "n_length_buckets": 3,
           "bucket_edges": [4, 16]}


@pytest.fixture(scope="module")
def pair():
    return load("hospital", n_rows=40, seed=3)


@pytest.fixture(scope="module")
def archives(pair, tmp_path_factory):
    """(archive as saved today, same archive carrying the retired keys)."""
    root = tmp_path_factory.mktemp("retired")
    detector = ETSBDetector(n_label_tuples=6, model_config=TINY,
                            training_config={"epochs": 2}, seed=1).fit(pair)
    current = root / "current.npz"
    save_detector(detector, current)
    with np.load(current, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(str(arrays["meta"]))
    meta["training_config"].update(RETIRED)
    arrays["meta"] = np.array(json.dumps(meta))
    retired = root / "retired.npz"
    np.savez(retired, **arrays)
    return current, retired


def test_helper_drops_exactly_the_retired_keys():
    assert set(RETIRED) == set(RETIRED_TRAINING_KEYS)
    config = training_config_from_dict({"epochs": 3, **RETIRED})
    assert config == TrainingConfig(epochs=3)
    with pytest.raises(TypeError):
        training_config_from_dict({"epochs": 3, "no_such_field": 1})


def test_load_detector_scores_byte_identically(pair, archives):
    current, retired = archives
    old, new = load_detector(retired), load_detector(current)
    assert old.training_config == new.training_config
    values = [str(v) for v in pair.dirty.column("city").values]
    attributes = ["city"] * len(values)
    scores = [d.trainer.predict_proba(encode_values_for(d, values,
                                                        attributes))
              for d in (old, new)]
    assert scores[0].tobytes() == scores[1].tobytes()


def test_cli_predict_output_is_byte_identical(pair, archives, tmp_path):
    dirty = tmp_path / "dirty.csv"
    write_csv(pair.dirty, dirty)
    outputs = []
    for archive in archives:
        out = tmp_path / f"{archive.stem}.csv"
        assert main(["predict", "--model", str(archive), "--dirty",
                     str(dirty), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_registry_adapter_load_scores_byte_identically(pair, archives):
    """Both load as the registry's ``etsb`` family, with one config and
    byte-equal ``score_cells``."""
    current, retired = archives
    old, new = load_detector(retired), load_detector(current)
    assert type(old) is type(new) is ETSBDetector
    assert old.config() == new.config()
    assert (old.score_cells(pair.dirty).tobytes()
            == new.score_cells(pair.dirty).tobytes())


# -- the ensemble's retired constructor keys --------------------------------


def test_ensemble_constructor_rejects_n_workers_and_unknown_keys():
    """``n_workers`` sized the cross-fit pool, which now has one worker
    per CPU; ``calibration`` chose a calibrator, which one rule now
    picks."""
    from repro.detectors import EnsembleDetector

    for retired in ({"n_workers": 2}, {"calibration": "platt"},
                    {"no_such_field": 1}):
        with pytest.raises(TypeError):
            EnsembleDetector(**retired)
