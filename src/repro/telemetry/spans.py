"""Nestable tracing spans with wall/CPU time and parent links.

``with span("train.fit"):`` measures the block's wall-clock and CPU time
and, on exit, (1) folds the wall time into the process registry's
``span.<name>`` timer and (2) emits a ``{"type": "span", ...}`` record
carrying the parent span's name and the nesting depth, so sinks can
reconstruct the call tree.

Spans honour the overhead policy of :mod:`repro.telemetry.registry`:
with telemetry disabled, :func:`span` returns a shared no-op context
manager -- no allocation, no clock reads.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable

from repro.telemetry.registry import MetricsRegistry, enabled, get_registry

#: Stack of currently open spans (per process; the compute paths are
#: single-threaded, mirroring the kernels' scratch-pool assumption).
_stack: list["Span"] = []


class _NullSpan:
    """Shared do-nothing span used while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add(self, **fields) -> None:
        """Ignore extra fields (API-compatible with :class:`Span`)."""


_NULL_SPAN = _NullSpan()


class Span:
    """One live tracing context; use via :func:`span`."""

    __slots__ = ("name", "fields", "parent", "depth", "registry",
                 "wall_s", "cpu_s", "_wall0", "_cpu0")

    def __init__(self, name: str, registry: MetricsRegistry | None = None,
                 **fields):
        self.name = name
        self.fields = fields
        self.registry = registry
        self.parent: str | None = None
        self.depth = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def add(self, **fields) -> None:
        """Attach extra fields to the record emitted on exit."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        if _stack:
            self.parent = _stack[-1].name
            self.depth = _stack[-1].depth + 1
        _stack.append(self)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu_s = time.process_time() - self._cpu0
        self.wall_s = time.perf_counter() - self._wall0
        if _stack and _stack[-1] is self:
            _stack.pop()
        registry = self.registry if self.registry is not None else get_registry()
        registry.timer(f"span.{self.name}").observe(self.wall_s)
        registry.emit({
            "type": "span",
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            **self.fields,
        })


def span(name: str, registry: MetricsRegistry | None = None, **fields):
    """A tracing context for ``name`` (no-op while telemetry is off)."""
    if not enabled():
        return _NULL_SPAN
    return Span(name, registry=registry, **fields)


def spanned(name: str) -> Callable[[Callable], Callable]:
    """Decorator: every call of the function runs in a :func:`span`
    called ``name``."""
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def current_span() -> Span | None:
    """The innermost open span, if any (for attaching fields)."""
    return _stack[-1] if _stack else None
