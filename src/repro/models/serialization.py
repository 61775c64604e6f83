"""Saving and loading fitted detectors and training checkpoints.

A fitted :class:`~repro.models.detector.ErrorDetector` is more than its
weights: prediction needs the character and attribute dictionaries and
the padded sequence length from data preparation.  ``save_detector``
packs all of it into a single ``.npz`` archive (weights as arrays,
metadata as a JSON payload); ``load_detector`` reconstructs a detector
that predicts identically.  Version 2 added the optimizer's update
state, making a restored detector truly resumable; version 3 each
attribute's longest training value, the denominator of ``length_norm``.
Older archives load with a fresh optimizer (v1) and with ``max_length``
as every attribute's denominator (v1, v2), as they were scored.

This module also owns the *training checkpoint* format used by
:meth:`repro.nn.training.Trainer.fit` for crash safety: one ``.npz``
per save holding the model weights, the optimizer state, the shuffling
RNG state, every callback's state and the last completed epoch.  Writes
are atomic (write to a temp file in the same directory, then
``os.replace``), so a crash mid-write can never corrupt the previous
checkpoint, and resuming from one provably replays the uninterrupted
weight trajectory bit for bit.
"""

from __future__ import annotations

import json
import os

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.dataprep import PreparedData
from repro.dataprep.pipeline import CellKeys
from repro.dataprep.encoding import encode_values
from repro.dataprep.dictionaries import AttributeDictionary, CharDictionary
from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.models.config import ModelConfig, training_config_from_dict
from repro.models.detector import ErrorDetector, build_model
from repro.nn.callbacks import Callback
from repro.nn.module import Module
from repro.nn.optim import Optimizer

#: Detector archive version: 2 added the optimizer state, 3 the
#: per-attribute longest values (v1 and v2 still load).
_FORMAT_VERSION = 3

#: Training-checkpoint archive version.
_CHECKPOINT_VERSION = 1


def _atomic_savez(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` with write-then-rename atomicity.

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename: readers only ever see
    the old complete archive or the new complete archive.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _dictionary_chars(char_index: CharDictionary) -> str:
    """The characters in index order (index i+1 -> chars[i])."""
    return "".join(char_index.char_of(i)
                   for i in range(1, char_index.n_chars + 1))


def save_detector(detector: ErrorDetector, path: str | Path) -> None:
    """Serialise a fitted detector to an ``.npz`` archive (format v3).

    The archive includes the optimizer's update state, so a loaded
    detector can genuinely resume training where it stopped instead of
    restarting RMSprop's moving averages from zero, and each attribute's
    longest training value, so it encodes cells as training did.

    Raises
    ------
    NotFittedError
        When the detector has not been fitted.
    """
    if detector.model is None or detector.prepared is None:
        raise NotFittedError("cannot save an unfitted detector")
    prepared = detector.prepared
    meta = {
        "format_version": _FORMAT_VERSION,
        "architecture": detector.architecture,
        "model_config": asdict(detector.model_config),
        "training_config": asdict(detector.training_config),
        "characters": _dictionary_chars(prepared.char_index),
        "attributes": list(prepared.attributes),
        "max_length": prepared.max_length,
        "longest": dict(prepared.longest),
        "seed": detector.seed,
    }
    arrays = {
        f"state:{name}": value
        for name, value in detector.model.state_dict().items()
    }
    if detector.trainer is not None:
        opt_state = detector.trainer.optimizer.state_dict()
        meta["optimizer"] = {
            "type": opt_state["type"],
            "learning_rate": opt_state["learning_rate"],
            "extra": opt_state["extra"],
            "slots": {name: len(values)
                      for name, values in opt_state["slots"].items()},
        }
        for slot, values in opt_state["slots"].items():
            for i, value in enumerate(values):
                arrays[f"opt:{slot}:{i:04d}"] = value
    path = Path(path)
    if path.suffix != ".npz":        # np.savez appends .npz to bare names;
        path = path.with_name(path.name + ".npz")  # keep the atomic path aligned
    _atomic_savez(path, {"meta": np.asarray(json.dumps(meta)), **arrays})


def load_detector(path: str | Path) -> ErrorDetector:
    """Reconstruct a detector saved with :func:`save_detector`.

    The returned detector can :meth:`~repro.models.detector.ErrorDetector.predict`
    and encode new values; it carries no training split (``evaluate`` is
    unavailable -- re-fit for that).
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "meta" not in archive:
            raise DataError(f"{path}: not a repro detector archive")
        meta = json.loads(str(archive["meta"]))
        version = meta.get("format_version")
        if version not in (1, 2, _FORMAT_VERSION):
            raise DataError(
                f"{path}: unsupported format version {version}"
            )
        state = {
            name[len("state:"):]: archive[name]
            for name in archive.files if name.startswith("state:")
        }
        opt_arrays = {
            name: archive[name]
            for name in archive.files if name.startswith("opt:")
        }

    config = ModelConfig(**meta["model_config"])
    training_config = None
    if meta.get("training_config") is not None:
        training_config = training_config_from_dict(meta["training_config"])
    detector = ErrorDetector(architecture=meta["architecture"],
                             model_config=config,
                             training_config=training_config,
                             seed=meta["seed"])

    char_index = CharDictionary([meta["characters"]])
    attribute_index = AttributeDictionary(meta["attributes"])
    max_length = int(meta["max_length"])
    # Before v3, every attribute was scored over the global length.
    longest = (meta.get("longest") if version == _FORMAT_VERSION
               else dict.fromkeys(meta["attributes"], max_length))
    if (not isinstance(longest, dict)
            or sorted(longest) != sorted(meta["attributes"])
            or not all(type(n) is int and 0 <= n <= max_length
                       for n in longest.values())):
        raise DataError(
            f"{path}: 'longest' must map each of the archive's attributes "
            f"to an int in [0, {max_length}], got {longest!r}")
    # A PreparedData with zero cells: prediction needs only the
    # dictionaries and sequence lengths.
    no_cells = np.zeros(0, dtype=np.int64)
    prepared = PreparedData(
        attributes=tuple(meta["attributes"]),
        char_index=char_index,
        attribute_index=attribute_index,
        max_length=max_length,
        longest=longest,
        keys=CellKeys(codes=no_cells, first=no_cells, attributes=[],
                      values=[]),
        labels=no_cells,
    )
    rng = np.random.default_rng(meta["seed"])
    model = build_model(meta["architecture"], prepared, config, rng)
    # load_state_dict bumps the model's weights version, so a prediction
    # cache can never serve entries computed under the fresh-init weights.
    model.load_state_dict(state)
    model.eval()

    detector.model = model
    detector.prepared = prepared
    from repro.nn import Trainer
    from repro.models.detector import _loss
    optimizer = _rebuild_optimizer(model, meta.get("optimizer"), opt_arrays)
    detector.trainer = Trainer(model=model,
                               optimizer=optimizer,
                               loss_fn=_loss,
                               prediction_cache=detector.prediction_cache)
    return detector


#: Optimizer classes a detector archive may reference.
def _optimizer_class(name: str):
    from repro.nn import SGD, Adam, RMSprop
    classes = {"SGD": SGD, "RMSprop": RMSprop, "Adam": Adam}
    if name not in classes:
        raise DataError(
            f"archive references unknown optimizer {name!r}; "
            f"known: {sorted(classes)}"
        )
    return classes[name]


def _rebuild_optimizer(model: Module, opt_meta: dict | None,
                       opt_arrays: dict[str, np.ndarray]) -> Optimizer:
    """Reconstruct the archived optimizer (v2) or a fresh RMSprop (v1).

    Version-1 archives carry no optimizer section: the paper's default
    RMSprop starts with zeroed moving averages, exactly the old
    behaviour, so old files keep loading unchanged.
    """
    from repro.nn import RMSprop
    if opt_meta is None:
        return RMSprop(model.parameters())
    optimizer = _optimizer_class(opt_meta["type"])(model.parameters())
    slots = {
        slot: [opt_arrays[f"opt:{slot}:{i:04d}"] for i in range(count)]
        for slot, count in opt_meta["slots"].items()
    }
    optimizer.load_state_dict({
        "type": opt_meta["type"],
        "learning_rate": opt_meta["learning_rate"],
        "extra": opt_meta["extra"],
        "slots": slots,
    })
    return optimizer


def encode_values_for(detector: ErrorDetector, values: list[str],
                      attributes: list[str]) -> dict[str, np.ndarray]:
    """The features of raw (value, attribute) pairs for ``detector.predict``
    (:func:`~repro.dataprep.encoding.encode_values`)."""
    if detector.prepared is None:
        raise NotFittedError("detector carries no dictionaries")
    return encode_values(detector.prepared, values, attributes)[0]


# -- training checkpoints -----------------------------------------------------

@dataclass(frozen=True)
class TrainingCheckpoint:
    """Everything :meth:`Trainer.fit` needs to continue bit-for-bit.

    Attributes
    ----------
    epoch:
        Last *completed* epoch (0-based); resume continues at
        ``epoch + 1``.
    model_state:
        :meth:`~repro.nn.module.Module.state_dict` snapshot.
    optimizer_state:
        :meth:`~repro.nn.optim.Optimizer.state_dict` snapshot.
    rng_state:
        The shuffling generator's ``bit_generator.state`` (``None`` when
        the trainer shuffles deterministically without an RNG).
    callback_types, callback_states:
        Per-callback class names and state snapshots, parallel to the
        trainer's callback list (the implicit ``History`` included).
    """

    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict
    rng_state: dict | None
    callback_types: tuple[str, ...] = ()
    callback_states: tuple[dict, ...] = field(default_factory=tuple)


def _pack_callback_state(index: int, callback: Callback,
                         arrays: dict[str, np.ndarray]) -> dict:
    """Flatten one callback's state into JSON meta + npz arrays.

    State values may be JSON-able scalars/containers, arrays, or one
    level of ``dict[str, ndarray]`` (how ``BestWeightsCheckpoint`` holds
    its best weights).
    """
    state = callback.state_dict()
    meta: dict = {"type": type(callback).__name__, "scalars": {},
                  "arrays": [], "nested": {}}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            arrays[f"cb{index}:{key}"] = value
            meta["arrays"].append(key)
        elif (isinstance(value, dict) and value
              and all(isinstance(v, np.ndarray) for v in value.values())):
            for sub, array in value.items():
                arrays[f"cb{index}:{key}/{sub}"] = array
            meta["nested"][key] = list(value)
        else:
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"callback {type(callback).__name__} state key {key!r} "
                    f"is not checkpointable (got {type(value).__name__})"
                ) from None
            meta["scalars"][key] = value
    return meta


def _unpack_callback_state(index: int, meta: dict,
                           archive) -> dict:
    """Inverse of :func:`_pack_callback_state`."""
    state: dict = dict(meta["scalars"])
    for key in meta["arrays"]:
        state[key] = archive[f"cb{index}:{key}"]
    for key, subkeys in meta["nested"].items():
        state[key] = {sub: archive[f"cb{index}:{key}/{sub}"]
                      for sub in subkeys}
    return state


def save_training_checkpoint(path: str | Path, model: Module,
                             optimizer: Optimizer, epoch: int,
                             rng: np.random.Generator | None = None,
                             callbacks: tuple[Callback, ...] | list[Callback] = (),
                             ) -> None:
    """Atomically write one epoch's full training state to ``path``.

    The write is crash-safe: the archive is assembled under a temporary
    name in the same directory and renamed over ``path`` in one
    ``os.replace``, so an interrupted save leaves the previous
    checkpoint intact.
    """
    arrays: dict[str, np.ndarray] = {
        f"model:{name}": value
        for name, value in model.state_dict().items()
    }
    opt_state = optimizer.state_dict()
    for slot, values in opt_state["slots"].items():
        for i, value in enumerate(values):
            arrays[f"opt:{slot}:{i:04d}"] = value
    callback_meta = [_pack_callback_state(i, callback, arrays)
                     for i, callback in enumerate(callbacks)]
    meta = {
        "format": "repro-training-checkpoint",
        "format_version": _CHECKPOINT_VERSION,
        "epoch": int(epoch),
        "rng_state": None if rng is None else rng.bit_generator.state,
        "optimizer": {
            "type": opt_state["type"],
            "learning_rate": opt_state["learning_rate"],
            "extra": opt_state["extra"],
            "slots": {name: len(values)
                      for name, values in opt_state["slots"].items()},
        },
        "callbacks": callback_meta,
    }
    _atomic_savez(Path(path), {"meta": np.asarray(json.dumps(meta)), **arrays})


def load_training_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Read a checkpoint written by :func:`save_training_checkpoint`.

    Raises
    ------
    DataError
        When the file is not a training checkpoint or its version is
        unsupported.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "meta" not in archive:
            raise DataError(f"{path}: not a repro archive")
        meta = json.loads(str(archive["meta"]))
        if meta.get("format") != "repro-training-checkpoint":
            raise DataError(f"{path}: not a training checkpoint")
        if meta.get("format_version") != _CHECKPOINT_VERSION:
            raise DataError(
                f"{path}: unsupported checkpoint version "
                f"{meta.get('format_version')}"
            )
        model_state = {
            name[len("model:"):]: archive[name]
            for name in archive.files if name.startswith("model:")
        }
        opt_meta = meta["optimizer"]
        optimizer_state = {
            "type": opt_meta["type"],
            "learning_rate": opt_meta["learning_rate"],
            "extra": opt_meta["extra"],
            "slots": {
                slot: [archive[f"opt:{slot}:{i:04d}"] for i in range(count)]
                for slot, count in opt_meta["slots"].items()
            },
        }
        callback_states = tuple(
            _unpack_callback_state(i, cb_meta, archive)
            for i, cb_meta in enumerate(meta["callbacks"])
        )
    return TrainingCheckpoint(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        optimizer_state=optimizer_state,
        rng_state=meta["rng_state"],
        callback_types=tuple(cb["type"] for cb in meta["callbacks"]),
        callback_states=callback_states,
    )
