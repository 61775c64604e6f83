"""The training loop.

Works with multi-input models: a training example is a dict of named
feature arrays (the paper's models take up to three inputs -- character
indices, attribute index and normalised length) plus integer labels.

Training draws plain shuffled batches (the paper's protocol).  Inference
(:func:`predict_proba`) can take per-example lengths: it then runs
sorted-by-length chunks whose padded ``values`` tails are trimmed to the
chunk maximum.  Trimming only removes steps that are padding for every
row, so forward values are bit-for-bit identical to the full-padding
path (see :mod:`repro.nn.kernels`).
"""

from __future__ import annotations

import time

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from pathlib import Path

from repro import telemetry
from repro.autograd import Tensor, no_grad
from repro.errors import ConfigurationError
from repro.faults import inject
from repro.inference import InferenceEngine, InferenceStats, PredictionCache
from repro.inference.engine import (
    SEQUENCE_KEYS,
    row_block_index,
    validate_rows,
)
from repro.inference.index import DedupIndex
from repro.nn.callbacks import Callback, History
from repro.nn.module import Module
from repro.nn.optim import RMSprop, clip_gradients

Features = dict[str, np.ndarray]


@dataclass
class Batch:
    """One mini-batch of features and labels."""

    features: Features
    labels: np.ndarray

    @property
    def size(self) -> int:
        """Number of examples in the batch."""
        return int(self.labels.shape[0])


def _validate(features: Mapping[str, np.ndarray], labels: np.ndarray) -> int:
    if not features:
        raise ConfigurationError("training requires at least one feature array")
    n = labels.shape[0]
    for name, arr in features.items():
        if arr.shape[0] != n:
            raise ConfigurationError(
                f"feature {name!r} has {arr.shape[0]} rows but labels have {n}"
            )
    if n == 0:
        raise ConfigurationError("training set is empty")
    return n


def _gather(arr: np.ndarray, index: np.ndarray, key: str,
            buffers: dict[str, np.ndarray] | None) -> np.ndarray:
    """Contiguous fancy-gather of ``arr[index]`` along axis 0.

    With ``buffers``, the result is written into a per-key reusable
    buffer (reallocated only when the batch shape changes, i.e. for the
    last partial batch), saving one allocation per feature per batch.
    """
    if buffers is None:
        return np.take(arr, index, axis=0)
    shape = (index.shape[0],) + arr.shape[1:]
    buf = buffers.get(key)
    if buf is None or buf.shape != shape or buf.dtype != arr.dtype:
        buf = np.empty(shape, dtype=arr.dtype)
        buffers[key] = buf
    return np.take(arr, index, axis=0, out=buf)


def iterate_batches(features: Mapping[str, np.ndarray], labels: np.ndarray,
                    batch_size: int, rng: np.random.Generator | None = None,
                    reuse_buffers: bool = False) -> Iterator[Batch]:
    """Yield :class:`Batch` objects, optionally in shuffled order.

    ``reuse_buffers=True`` gathers each batch into per-feature buffers
    that are reused across iterations: a yielded batch's arrays are only
    valid until the next batch is drawn.  The training loop (which fully
    consumes a batch -- forward, backward, step -- before advancing) opts
    in; leave it off when batches are collected or consumed lazily.
    """
    n = _validate(features, labels)
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(n)
    if rng is not None:
        rng.shuffle(order)
    buffers: dict[str, np.ndarray] | None = {} if reuse_buffers else None
    for start in range(0, n, batch_size):
        index = order[start:start + batch_size]
        yield Batch(
            features={name: _gather(arr, index, name, buffers)
                      for name, arr in features.items()},
            labels=_gather(labels, index, "__labels__", buffers),
        )


@dataclass
class Trainer:
    """Gradient-descent trainer with callbacks.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.module.Module` whose ``forward(features)``
        maps a feature dict to class probabilities ``(batch, n_classes)``.
    optimizer:
        The :class:`~repro.nn.optim.RMSprop` update over
        ``model.parameters()``.
    loss_fn:
        ``loss_fn(probabilities, labels) -> scalar Tensor``.  When the
        model defines a ``training_loss(features, labels)`` method (the
        paper's architectures do), that method is used instead -- it can
        fuse the classifier head and loss into a single autograd node on
        the ``"fused"`` backend (see :mod:`repro.nn.kernels`).
    max_grad_norm:
        Global-norm gradient clipping threshold (``None`` disables).
    rng:
        Generator for batch shuffling.
    callbacks:
        Extra callbacks; a :class:`History` is always appended and exposed
        as :attr:`history`.
    prediction_cache:
        Optional cross-call :class:`~repro.inference.PredictionCache`
        used by :meth:`predict_proba`'s dedup fast path.  Entries are
        invalidated automatically whenever the weights move: the trainer
        bumps the model's ``weights_version`` after every optimizer step,
        and checkpoint restores bump it through ``load_state_dict``.
    """

    model: Module
    optimizer: RMSprop
    loss_fn: Callable[[Tensor, np.ndarray], Tensor]
    max_grad_norm: float | None = 5.0
    rng: np.random.Generator | None = None
    callbacks: Sequence[Callback] = field(default_factory=tuple)
    prediction_cache: PredictionCache | None = None
    history: History = field(init=False)

    def __post_init__(self) -> None:
        self.history = History()
        self._all_callbacks: list[Callback] = list(self.callbacks) + [self.history]
        self._engine = InferenceEngine(self.model, cache=self.prediction_cache)

    def fit(self, features: Features, labels: np.ndarray, epochs: int,
            batch_size: int,
            checkpoint_path: str | Path | None = None,
            resume_from: str | Path | None = None) -> History:
        """Train for ``epochs`` passes over the data; returns the history.

        Crash safety: with ``checkpoint_path``, the full training state
        (weights, optimizer slots, shuffling RNG, callback state, epoch
        counter) is atomically written after every epoch.
        With ``resume_from`` pointing at such a file, training continues
        after the checkpoint's epoch and the final weights are
        bit-identical to an uninterrupted run; a missing ``resume_from``
        file simply starts fresh (so a first run and a re-run after a
        crash are the same invocation).
        """
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        labels = np.asarray(labels)
        _validate(features, labels)
        # Models may fuse forward and loss into one call (e.g. the fused
        # dense+softmax+BCE head kernel); fall back to forward + loss_fn.
        model_loss = getattr(self.model, "training_loss", None)
        self.model.train()
        for callback in self._all_callbacks:
            callback.on_train_begin(self.model)
        # Restore AFTER on_train_begin so begin-hooks (e.g. a callback
        # resetting the learning rate for epoch 0) cannot clobber the
        # checkpointed state; the checkpoint already reflects them.
        start_epoch = 0
        if resume_from is not None:
            start_epoch = self._restore_checkpoint(resume_from)
        # Telemetry is a single cached boolean test per epoch when off; the
        # per-batch accounting below only runs when it is on.
        tele = telemetry.enabled()
        registry = telemetry.get_registry() if tele else None
        with telemetry.span("train.fit", epochs=epochs, batch_size=batch_size):
            for epoch in range(start_epoch, epochs):
                epoch_started = time.perf_counter() if tele else 0.0
                epoch_loss = 0.0
                examples = 0
                n_batches = 0
                norm_sum = 0.0
                backward_seconds = 0.0
                batch_iter = iterate_batches(features, labels, batch_size,
                                             rng=self.rng, reuse_buffers=True)
                for batch_index, batch in enumerate(batch_iter):
                    inject("trainer.batch_step", epoch=epoch,
                           batch=batch_index)
                    self.optimizer.zero_grad()
                    if model_loss is not None:
                        loss = model_loss(batch.features, batch.labels)
                    else:
                        outputs = self.model(batch.features)
                        loss = self.loss_fn(outputs, batch.labels)
                    if tele:
                        backward_started = time.perf_counter()
                        loss.backward()
                        backward_seconds += (time.perf_counter()
                                             - backward_started)
                    else:
                        loss.backward()
                    grad_norm = None
                    if self.max_grad_norm is not None:
                        grad_norm = clip_gradients(self.model.parameters(),
                                                   self.max_grad_norm)
                    self.optimizer.step()
                    # The weights moved: bump the version so any prediction
                    # cache keyed on it drops its now-stale entries.
                    self.model.mark_weights_updated()
                    epoch_loss += loss.item() * batch.size
                    examples += batch.size
                    if tele:
                        n_batches += 1
                        if grad_norm is not None:
                            norm_sum += grad_norm
                logs = {"loss": epoch_loss / examples}
                if tele:
                    wall = time.perf_counter() - epoch_started
                    registry.counter("train.epochs").inc()
                    registry.counter("train.batches").inc(n_batches)
                    registry.counter("train.examples").inc(examples)
                    registry.timer("train.epoch_seconds").observe(wall)
                    registry.timer("train.backward_seconds").observe(
                        backward_seconds)
                    registry.gauge("train.loss").set(logs["loss"])
                    registry.emit({
                        "type": "epoch",
                        "epoch": epoch,
                        "loss": logs["loss"],
                        "grad_norm": (norm_sum / n_batches
                                      if self.max_grad_norm is not None
                                      and n_batches else None),
                        "n_batches": n_batches,
                        "examples": examples,
                        # Mean examples per batch over the nominal batch
                        # size (< 1.0 when the last batch is partial).
                        "batch_fill": (examples / (n_batches * batch_size)
                                       if n_batches else None),
                        "backward_s": backward_seconds,
                        "wall_s": wall,
                    })
                for callback in self._all_callbacks:
                    callback.on_epoch_end(self.model, epoch, logs)
                # Fired before the checkpoint write: a kill here loses the
                # whole epoch, the harshest recovery window the chaos
                # tests exercise.
                inject("trainer.epoch_end", epoch=epoch)
                if checkpoint_path is not None:
                    self._save_checkpoint(checkpoint_path, epoch)
        for callback in self._all_callbacks:
            callback.on_train_end(self.model)
        return self.history

    def _save_checkpoint(self, path: str | Path, epoch: int) -> None:
        # Imported lazily: repro.models.serialization imports the model
        # zoo, which imports repro.nn.
        from repro.models.serialization import save_training_checkpoint

        save_training_checkpoint(path, self.model, self.optimizer,
                                 epoch=epoch, rng=self.rng,
                                 callbacks=self._all_callbacks)

    def _restore_checkpoint(self, path: str | Path) -> int:
        """Restore a training checkpoint; returns the epoch to resume at.

        A missing file is not an error -- it means "no prior progress",
        so the caller starts from epoch 0 and the same command line works
        for both the first run and every re-run after a crash.
        """
        from repro.models.serialization import load_training_checkpoint

        path = Path(path)
        if not path.exists():
            return 0
        ckpt = load_training_checkpoint(path)
        self.model.load_state_dict(ckpt.model_state)
        self.model.mark_weights_updated()
        self.optimizer.load_state_dict(ckpt.optimizer_state)
        if ckpt.rng_state is not None:
            if self.rng is None:
                raise ConfigurationError(
                    "checkpoint carries a shuffling RNG state but this "
                    "trainer has rng=None"
                )
            self.rng.bit_generator.state = ckpt.rng_state
        if ckpt.callback_types:
            names = [type(cb).__name__ for cb in self._all_callbacks]
            if list(ckpt.callback_types) != names:
                raise ConfigurationError(
                    f"checkpoint callbacks {list(ckpt.callback_types)} do "
                    f"not match this trainer's callbacks {names}"
                )
            for callback, state in zip(self._all_callbacks,
                                       ckpt.callback_states):
                if state:
                    callback.load_state_dict(state)
        return ckpt.epoch + 1

    def predict_proba(self, features: Features, batch_size: int = 256,
                      lengths: np.ndarray | None = None,
                      dedup: DedupIndex | None = None,
                      deduplicate: bool = True) -> np.ndarray:
        """Class probabilities in eval mode, without recording gradients.

        With ``deduplicate=True`` (the default) the dedup-memoized fast
        path runs: the network only sees one representative per group of
        byte-identical feature rows (and, with a :attr:`prediction_cache`,
        only representatives it has never scored under the current
        weights), and probabilities are scattered back with ``np.take``.
        The result is bit-for-bit identical to the naive chunked forward.
        ``dedup`` supplies a precomputed unique-cell index (e.g.
        :attr:`~repro.dataprep.encoding.EncodedCells.dedup`).
        """
        self.model.eval()
        if deduplicate:
            self._engine.batch_size = batch_size
            return self._engine.predict_proba(features, lengths=lengths,
                                              dedup=dedup)
        return predict_proba(self.model, features, batch_size=batch_size,
                             lengths=lengths)

    @property
    def inference_stats(self) -> InferenceStats:
        """Counters of the most recent dedup prediction call."""
        return self._engine.last_stats

    @property
    def total_inference_stats(self) -> InferenceStats:
        """Accumulated counters over every dedup prediction call."""
        return self._engine.total_stats


def predict_proba(model: Module, features: Features,
                  batch_size: int = 256,
                  lengths: np.ndarray | None = None) -> np.ndarray:
    """Run ``model`` over ``features`` in chunks; returns ``(n, n_classes)``.

    The naive reference for the dedup-memoized
    :class:`~repro.inference.InferenceEngine`, which
    :meth:`Trainer.predict_proba` runs by default: every row goes through
    the model.  The output array is preallocated once and filled chunk by
    chunk, so peak memory is one output array plus one chunk (not a full
    second copy from concatenation).  With per-example ``lengths``,
    examples are processed in sorted-by-length chunks whose ``values``
    arrays are trimmed to the chunk maximum (padding steps carry state
    unchanged, so per-example outputs are bit-for-bit identical), and
    results are un-permuted back to input order.
    """
    n = validate_rows(features)
    out: np.ndarray | None = None
    if lengths is None:
        with no_grad():
            for start in range(0, n, batch_size):
                chunk = {name: arr[start:start + batch_size]
                         for name, arr in features.items()}
                probs = _forward_chunk(model, chunk)
                if out is None:
                    out = np.empty((n, probs.shape[1]), dtype=probs.dtype)
                out[start:start + batch_size] = probs
        return out

    lengths = np.asarray(lengths).reshape(-1)
    if lengths.shape[0] != n:
        raise ConfigurationError(
            f"lengths has {lengths.shape[0]} entries but features have {n} rows"
        )
    order = np.argsort(lengths, kind="stable")
    with no_grad():
        for start in range(0, n, batch_size):
            index = order[start:start + batch_size]
            width = max(int(lengths[index].max()), 1)
            chunk = {}
            for name, arr in features.items():
                part = np.take(arr, index, axis=0)
                if (name in SEQUENCE_KEYS and part.ndim >= 2
                        and width < part.shape[1]):
                    part = part[:, :width]
                chunk[name] = part
            probs = _forward_chunk(model, chunk)
            if out is None:
                out = np.empty((n, probs.shape[1]), dtype=probs.dtype)
            out[index] = probs
    return out


def _forward_chunk(model: Module, chunk: Features) -> np.ndarray:
    """One inference forward whose per-row bits don't depend on batching.

    The chunk is duplicate-padded to whole BLAS row blocks (see
    :func:`repro.inference.engine.row_block_index`): BLAS rounds a row
    differently in a one-row product or a partial row block, which would
    break the bit-for-bit contract between this naive reference path and
    the dedup-memoized engine whenever their chunkings differ.
    """
    n = next(iter(chunk.values())).shape[0]
    index = row_block_index(n)
    if index.shape[0] > n:
        chunk = {name: arr[index] for name, arr in chunk.items()}
    return model(chunk).numpy()[:n]
