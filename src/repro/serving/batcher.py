"""Deadline- and size-bounded coalescing of concurrent score requests.

Each forward pass through the network has a fixed per-call overhead
(Python dispatch, chunk gathers, the RNN time loop's step machinery)
that dwarfs the marginal cost of an extra row, so scoring eight
concurrent one-cell requests as eight forwards wastes almost all of the
hardware.  :class:`MicroBatcher` fixes that: request threads
:meth:`~MicroBatcher.submit` raw cells (values and their attributes)
and block on a future; a single batcher thread drains the queue
(bounded by ``max_batch_rows`` and a ``max_delay_s`` deadline from the
oldest request's arrival), encodes the batch's cells in one call, runs
**one**
:meth:`~repro.inference.InferenceEngine.predict_proba`, and scatters
the probability slices back to the waiting futures.

The batch runs under the served model's swap lock, taken once: the
served detector's dictionaries encode the cells, its engine scores
them and its version stamps every reply, so a reply never mixes two
models.  A request naming an attribute the served detector lacks fails
alone; the rest of its batch is scored.  The lock also makes the hot
swap safe (a swap waits for the in-flight batch) and keeps the engine's
reusable scratch buffers single-threaded.

Because the engine's per-row outputs are independent of batch
composition (the row-block padding invariant; see
:func:`repro.inference.engine.row_block_index`), coalescing is
value-preserving: a row's probabilities are byte-identical whether it
was scored alone or packed with 255 strangers.

Admission control is a bounded queue: once ``max_queue_rows`` rows are
waiting, :meth:`~MicroBatcher.submit` raises :class:`Overloaded`
instead of queueing -- the daemon translates that into a 429-style
rejection, shedding load at the door rather than collapsing under it.
"""

from __future__ import annotations

import threading
import time

from collections import deque
from collections.abc import Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.serving import session


class Overloaded(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the queue is full."""


@dataclass(frozen=True)
class BatchResult:
    """One request's slice of a micro-batch's output.

    Attributes
    ----------
    probabilities:
        ``(n_request_rows, n_classes)`` float64 probabilities.
    weights_version:
        The served model's version (its swap count) that encoded and
        scored every row of the batch.
    batch_id:
        Monotonic id of the executed batch; requests coalesced together
        share it.
    batch_items, batch_rows:
        How many requests / cells the executed batch scored.
    """

    probabilities: np.ndarray
    weights_version: int
    batch_id: int
    batch_items: int
    batch_rows: int


@dataclass
class BatcherStats:
    """Python-level counters (single-writer: the batcher thread)."""

    n_batches: int = 0
    n_items: int = 0
    n_rows: int = 0
    n_rejected: int = 0
    max_queued_rows: int = 0

    @property
    def mean_batch_items(self) -> float:
        """Requests coalesced per executed batch (1.0 = no batching win)."""
        return self.n_items / self.n_batches if self.n_batches else 0.0

    def as_dict(self) -> dict:
        return {
            "n_batches": self.n_batches,
            "n_items": self.n_items,
            "n_rows": self.n_rows,
            "n_rejected": self.n_rejected,
            "max_queued_rows": self.max_queued_rows,
            "mean_batch_items": round(self.mean_batch_items, 3),
        }


@dataclass
class _Item:
    values: list[str]
    attributes: list[str]
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)

    @property
    def n_rows(self) -> int:
        return len(self.values)


class MicroBatcher:
    """Coalesce concurrent prediction requests into engine micro-batches.

    Parameters
    ----------
    model:
        The :class:`~repro.serving.model.ServedModel` providing the
        dictionaries, the engine and the swap lock held during
        execution.
    max_batch_rows:
        Size bound: a batch closes as soon as this many cells are
        waiting.  A single oversized request (e.g. an initial full-table
        scoring) still executes as its own atomic batch, so ``1``
        executes every request as its own batch without waiting (the
        per-request baseline arm of ``BENCH_serve.json``).
    max_delay_s:
        Deadline bound: a batch closes at latest this long after its
        oldest request arrived.  The batcher also closes early when the
        queue stops growing for a quarter-deadline, so closed-loop
        request bursts pay far less than the full deadline.
    max_queue_rows:
        Admission bound: beyond this many queued rows,
        :meth:`submit` raises :class:`Overloaded`.
    """

    def __init__(self, model, max_batch_rows: int = 256,
                 max_delay_s: float = 0.004,
                 max_queue_rows: int = 4096):
        if max_batch_rows < 1:
            raise ConfigurationError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}")
        if max_delay_s < 0:
            raise ConfigurationError(
                f"max_delay_s must be >= 0, got {max_delay_s}")
        if max_queue_rows < 1:
            raise ConfigurationError(
                f"max_queue_rows must be >= 1, got {max_queue_rows}")
        self._model = model
        self.max_batch_rows = max_batch_rows
        self.max_delay_s = max_delay_s
        self.max_queue_rows = max_queue_rows
        self.stats = BatcherStats()
        self._queue: deque[_Item] = deque()
        self._queued_rows = 0
        self._cond = threading.Condition()
        self._stop = False
        self._batch_id = 0
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "MicroBatcher":
        """Start the batcher thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._run,
                                            name="repro-batcher", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Drain the queue, stop the thread and join it."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    # -- submission ---------------------------------------------------------

    def submit(self, values: Sequence[str],
               attributes: Sequence[str]) -> Future:
        """Enqueue the cells ``(values[i], attributes[i])``; returns a
        future of :class:`BatchResult`, whose probabilities are in cell
        order.

        The future fails with :class:`~repro.errors.ConfigurationError`
        when a cell names an attribute the model serving its batch
        lacks.

        Raises
        ------
        Overloaded
            When ``max_queue_rows`` rows are already waiting (the
            admission-control bound) or the batcher is shut down.
        """
        if len(values) != len(attributes):
            raise ConfigurationError(
                f"{len(values)} values but {len(attributes)} attributes")
        if not values:
            raise ConfigurationError("cannot submit an empty request")
        item = _Item(list(values), list(attributes))
        n_rows = item.n_rows
        with self._cond:
            if self._stop:
                raise Overloaded("batcher is shut down")
            if self._queued_rows + n_rows > self.max_queue_rows \
                    and self._queued_rows > 0:
                self.stats.n_rejected += 1
                raise Overloaded(
                    f"{self._queued_rows} rows queued "
                    f"(bound {self.max_queue_rows}); shedding load")
            self._queue.append(item)
            self._queued_rows += n_rows
            self.stats.max_queued_rows = max(self.stats.max_queued_rows,
                                             self._queued_rows)
            self._cond.notify_all()
        return item.future

    def predict(self, values: Sequence[str],
                attributes: Sequence[str]) -> BatchResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(values, attributes).result()

    # -- the batcher thread -------------------------------------------------

    def _collect(self) -> list[_Item]:
        """Block until a batch is due, then drain and return it.

        Returns an empty list only at shutdown with an empty queue.
        Must run on the batcher thread.
        """
        with self._cond:
            while not self._queue:
                if self._stop:
                    return []
                self._cond.wait()
            deadline = self._queue[0].enqueued_at + self.max_delay_s
            # Close early once the queue stops growing: a burst of
            # closed-loop clients arrives within a fraction of the
            # deadline, and holding their batch open any longer buys
            # nothing but latency.
            quiet_slice = self.max_delay_s / 4 or 0.0005
            while not self._stop and self._queued_rows < self.max_batch_rows:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                before = len(self._queue)
                self._cond.wait(timeout=min(quiet_slice, remaining))
                if len(self._queue) == before:
                    break
            # Drain FIFO up to the size bound (the first request always
            # ships, even when oversized).
            batch = [self._queue.popleft()]
            rows = batch[0].n_rows
            while (self._queue and rows + self._queue[0].n_rows
                   <= self.max_batch_rows):
                item = self._queue.popleft()
                batch.append(item)
                rows += item.n_rows
            self._queued_rows -= rows
            if self._queue:
                self._cond.notify_all()
            return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return
            self._execute(batch)

    def _execute(self, batch: list[_Item]) -> None:
        model = self._model
        try:
            # One swap lock for the whole batch: the served detector
            # encodes, its engine scores and its version stamps, and a
            # concurrent swap waits until the batch completes.
            with model.lock:
                known = frozenset(model.detector.prepared.attributes)
                ready = []
                for item in batch:
                    error = _unknown_attribute(item.attributes, known)
                    if error is None:
                        ready.append(item)
                    else:
                        item.future.set_exception(error)
                if not ready:
                    return
                features, lengths = session._encode(
                    model.detector,
                    [value for item in ready for value in item.values],
                    [name for item in ready for name in item.attributes])
                probabilities = model.engine.predict_proba(features,
                                                           lengths=lengths)
                version = model.version
            total_rows = sum(item.n_rows for item in ready)
            self._batch_id += 1
            self.stats.n_batches += 1
            self.stats.n_items += len(ready)
            self.stats.n_rows += total_rows
            if telemetry.enabled():
                registry = telemetry.get_registry()
                registry.counter("serve.batches").inc()
                registry.counter("serve.batch_items").inc(len(ready))
                registry.counter("serve.batch_rows").inc(total_rows)
            offset = 0
            for item in ready:
                item.future.set_result(BatchResult(
                    probabilities=probabilities[offset:offset + item.n_rows],
                    weights_version=version,
                    batch_id=self._batch_id,
                    batch_items=len(ready),
                    batch_rows=total_rows,
                ))
                offset += item.n_rows
        except BaseException as exc:  # noqa: BLE001 -- fulfil every waiter
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)


def _unknown_attribute(attributes: list[str],
                       known: frozenset[str]) -> ConfigurationError | None:
    """The error for a request's first cell whose attribute the served
    model never saw, or ``None``."""
    for i, name in enumerate(attributes):
        if name not in known:
            return ConfigurationError(
                f"cells[{i}]: the model never saw attribute {name!r} "
                f"(knows {sorted(known)})")
    return None
