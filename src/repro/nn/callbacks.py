"""Keras-style training callbacks.

:class:`BestWeightsCheckpoint` implements the paper's model-selection rule
(Section 5.2): "After every epoch we saved the training weights if the
computed loss of the trainset was less than in the previous epochs", and
the best weights are restored for final evaluation.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module


class Callback:
    """Base class; hooks are no-ops unless overridden."""

    def on_train_begin(self, model: Module) -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, model: Module, epoch: int, logs: dict[str, float]) -> None:
        """Called after every epoch with the epoch's metric logs."""

    def on_train_end(self, model: Module) -> None:
        """Called once after the last epoch."""

    def state_dict(self) -> dict:
        """Resumable snapshot of the callback's accumulated state.

        Values may be JSON-able scalars/lists, ``np.ndarray``, or one
        level of ``dict[str, np.ndarray]`` (the training-checkpoint
        format flattens exactly that much).  Stateless callbacks return
        the default empty dict and are skipped on resume.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (no-op by default)."""


class History(Callback):
    """Records every epoch's logs; drives the Figure 6/7 curves."""

    def __init__(self) -> None:
        self.epochs: list[int] = []
        self.logs: dict[str, list[float]] = {}

    def on_epoch_end(self, model: Module, epoch: int, logs: dict[str, float]) -> None:
        self.epochs.append(epoch)
        for key, value in logs.items():
            self.logs.setdefault(key, []).append(value)

    def series(self, key: str) -> list[float]:
        """The per-epoch series for one metric."""
        if key not in self.logs:
            raise ConfigurationError(
                f"no recorded metric {key!r}; available: {sorted(self.logs)}"
            )
        return list(self.logs[key])

    def state_dict(self) -> dict:
        return {"epochs": list(self.epochs),
                "logs": {key: list(values) for key, values in self.logs.items()}}

    def load_state_dict(self, state: dict) -> None:
        self.epochs = [int(e) for e in state.get("epochs", [])]
        self.logs = {key: list(values)
                     for key, values in state.get("logs", {}).items()}


class BestWeightsCheckpoint(Callback):
    """Keep the weights from the epoch with the best monitored metric.

    Parameters
    ----------
    monitor:
        Metric key from the epoch logs (default: training loss).
    mode:
        ``"min"`` (lower is better) or ``"max"``.
    restore_on_end:
        Restore the best snapshot when training finishes (the paper's
        behaviour).
    """

    def __init__(self, monitor: str = "loss", mode: str = "min",
                 restore_on_end: bool = True):
        if mode not in ("min", "max"):
            raise ConfigurationError(f"mode must be 'min' or 'max', got {mode!r}")
        self.monitor = monitor
        self.mode = mode
        self.restore_on_end = restore_on_end
        self.best_value: float | None = None
        self.best_epoch: int | None = None
        self._best_state: dict[str, np.ndarray] | None = None

    def _improved(self, value: float) -> bool:
        if self.best_value is None:
            return True
        if self.mode == "min":
            return value < self.best_value
        return value > self.best_value

    def on_epoch_end(self, model: Module, epoch: int, logs: dict[str, float]) -> None:
        if self.monitor not in logs:
            raise ConfigurationError(
                f"monitored metric {self.monitor!r} absent from logs {sorted(logs)}"
            )
        value = logs[self.monitor]
        if self._improved(value):
            self.best_value = value
            self.best_epoch = epoch
            self._best_state = model.state_dict()

    def on_train_end(self, model: Module) -> None:
        if self.restore_on_end and self._best_state is not None:
            self._restore_state(model)

    def restore(self, model: Module) -> None:
        """Explicitly restore the best snapshot into ``model``."""
        if self._best_state is None:
            raise ConfigurationError("no snapshot recorded yet")
        self._restore_state(model)

    def state_dict(self) -> dict:
        state: dict = {"best_value": self.best_value,
                       "best_epoch": self.best_epoch}
        if self._best_state is not None:
            state["best_state"] = {name: array.copy()
                                   for name, array in self._best_state.items()}
        return state

    def load_state_dict(self, state: dict) -> None:
        self.best_value = state.get("best_value")
        best_epoch = state.get("best_epoch")
        self.best_epoch = None if best_epoch is None else int(best_epoch)
        best_state = state.get("best_state")
        self._best_state = (None if best_state is None else
                            {name: np.array(array, copy=True)
                             for name, array in best_state.items()})

    def _restore_state(self, model: Module) -> None:
        """Swap in the snapshot and bump the model's weights version.

        ``load_state_dict`` already bumps, but the restore path bumps
        explicitly as well: a checkpoint restore must never be able to
        serve stale :class:`~repro.inference.cache.PredictionCache`
        entries, even if the state-dict plumbing changes.
        """
        model.load_state_dict(self._best_state)
        model.mark_weights_updated()


class EpochEvaluator(Callback):
    """Injects extra metrics into each epoch's logs.

    Used by the experiment harness to record test accuracy per epoch for
    the Figure 6 and Figure 7 learning curves.

    Parameters
    ----------
    evaluate:
        Zero-argument callable returning ``{metric_name: value}``; invoked
        after every epoch with the model in its current state.
    """

    def __init__(self, evaluate: Callable[[], dict[str, float]]):
        self._evaluate = evaluate

    def on_epoch_end(self, model: Module, epoch: int, logs: dict[str, float]) -> None:
        was_training = model.training
        model.eval()
        try:
            logs.update(self._evaluate())
        finally:
            if was_training:
                model.train()
