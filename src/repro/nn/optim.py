"""The optimizer and gradient clipping.

The paper trains with RMSprop (Section 5.2), the one update rule here.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Parameter


def clip_gradients(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.  Parameters without gradients are
    skipped.  Clipping keeps long tanh-RNN sequences from blowing up on
    rare pathological batches.
    """
    if max_norm <= 0:
        raise ConfigurationError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float((param.grad ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm


class RMSprop:
    """RMSprop (the paper's optimizer).

    Keeps an exponential moving average of squared gradients and divides
    the step by its root, with Keras-default hyperparameters.
    """

    def __init__(self, parameters: Sequence[Parameter], learning_rate: float = 0.001,
                 rho: float = 0.9, epsilon: float = 1e-7):
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        params = list(parameters)
        if not params:
            raise ConfigurationError("optimizer received no parameters")
        if not 0.0 < rho < 1.0:
            raise ConfigurationError(f"rho must be in (0, 1), got {rho}")
        self.parameters = params
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self._mean_square = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one update using the parameters' current gradients."""
        for param, mean_square in zip(self.parameters, self._mean_square):
            if param.grad is None:
                continue
            mean_square *= self.rho
            mean_square += (1.0 - self.rho) * param.grad ** 2
            param.data -= (self.learning_rate * param.grad
                           / (np.sqrt(mean_square) + self.epsilon))

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the optimizer's full update state.

        Together with the model's ``state_dict`` and the shuffling RNG
        state this makes training resumable: re-applying the snapshot
        and continuing yields the identical weight trajectory.
        """
        return {
            "type": "RMSprop",
            "learning_rate": float(self.learning_rate),
            "slots": {"mean_square": [array.copy()
                                      for array in self._mean_square]},
            "extra": {"rho": self.rho, "epsilon": self.epsilon},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Raises
        ------
        ConfigurationError
            When the snapshot came from another optimizer or its slot
            shapes do not match this optimizer's parameters.
        """
        if state.get("type") != "RMSprop":
            raise ConfigurationError(
                f"optimizer state is for {state.get('type')!r}, not 'RMSprop'"
            )
        slots = state.get("slots", {})
        if set(slots) != {"mean_square"}:
            raise ConfigurationError(
                f"optimizer slot mismatch: saved {sorted(slots)}, "
                f"expected ['mean_square']"
            )
        saved = slots["mean_square"]
        if len(saved) != len(self._mean_square):
            raise ConfigurationError(
                f"slot 'mean_square' has {len(saved)} saved arrays "
                f"for {len(self._mean_square)} parameters"
            )
        for target, value in zip(self._mean_square, saved):
            value = np.asarray(value)
            if target.shape != value.shape:
                raise ConfigurationError(
                    f"slot 'mean_square' shape mismatch: "
                    f"{value.shape} vs {target.shape}"
                )
            target[...] = value
        self.learning_rate = float(state["learning_rate"])
        extra = state.get("extra", {})
        self.rho = float(extra.get("rho", self.rho))
        self.epsilon = float(extra.get("epsilon", self.epsilon))
