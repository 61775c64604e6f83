"""Compute-backend selection for the sequence layers.

Two implementations of the recurrent levels (and the classifier head's
loss) coexist:

``"fused"`` (default)
    Whole-sequence numpy kernels from :mod:`repro.nn.kernels`; each level
    is a single autograd node with a hand-derived
    backpropagation-through-time backward.

``"graph"``
    The reference implementation: one autograd node per step per level,
    built from the primitive ops in :mod:`repro.autograd`.  Slower, but
    every gradient comes from the generic engine, which makes it the
    ground truth the fused kernels are tested against.

Both produce bit-for-bit identical forward values (the fused kernels run
the same numpy expressions in the same order), so reproduction results do
not depend on the active backend.  Both are also padding-aware: the time
loop stops at the batch's effective width (the last step that is live for
any row), so the padded tail of a batch of short values costs nothing, on
either backend.

Selection, in order of precedence: :func:`set_backend` /
:func:`use_backend` at runtime, then the ``REPRO_NN_BACKEND`` environment
variable, then the ``"fused"`` default.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator

from repro.errors import ConfigurationError

#: Recognised backend names.
BACKENDS = ("fused", "graph")

#: Environment variable consulted for the initial backend.
BACKEND_ENV_VAR = "REPRO_NN_BACKEND"

_active: str | None = None


def _resolve(name: str) -> str:
    if name not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {name!r}"
        )
    return name


def get_backend() -> str:
    """The active backend name (resolving the environment on first use)."""
    global _active
    if _active is None:
        _active = _resolve(os.environ.get(BACKEND_ENV_VAR) or "fused")
    return _active


def set_backend(name: str) -> None:
    """Select the compute backend for all subsequent sequence ops."""
    global _active
    _active = _resolve(name)


def reset_backend() -> None:
    """Forget any runtime selection; re-read the environment on next use."""
    global _active
    _active = None


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager that temporarily selects a backend."""
    global _active
    previous = _active
    set_backend(name)
    try:
        yield
    finally:
        _active = previous
