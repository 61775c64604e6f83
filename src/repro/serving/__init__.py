"""Online scoring service: the long-lived serving daemon.

The batch library scores tables one shot at a time; this package turns
it into a *service*.  :class:`ServingDaemon` listens on a local TCP
socket for JSON-lines requests (score / load_table / update / swap /
stats), coalesces concurrent requests' cells into one micro-batch that
:class:`MicroBatcher` encodes and scores in one
:class:`~repro.inference.InferenceEngine` forward, serves repeated
cells from the warm :class:`~repro.inference.PredictionCache`,
re-scores *only* the cell an edit touches (:class:`TableSession`
incremental re-scoring), and hot-swaps its one model
(:class:`ServedModel`) with zero downtime.
Admission control is a bounded queue: past it, requests are shed with a
429-style rejection instead of queueing unboundedly.

Quick start::

    from repro.serving import ServingDaemon, ServingClient

    daemon = ServingDaemon(model_path="model.npz", port=0)
    daemon.start()
    with ServingClient("127.0.0.1", daemon.port) as client:
        reply = client.request({"op": "score", "cells": [
            {"attribute": "city", "value": "Bostom"}]})
    daemon.shutdown()

Everything is stdlib + numpy; the daemon is threaded (socketserver
front, one batcher thread per process) and all encoding and scoring is
serialised on the batcher thread under the swap lock, which is what
makes hot swaps safe: a model swap can never interleave with a
half-executed micro-batch, and one model's dictionaries, network and
version answer each request.
"""

from repro.serving.batcher import BatcherStats, MicroBatcher, Overloaded
from repro.serving.client import ServingClient
from repro.serving.daemon import ServingDaemon
from repro.serving.model import ServedModel
from repro.serving.session import TableSession

__all__ = [
    "BatcherStats",
    "MicroBatcher",
    "Overloaded",
    "ServedModel",
    "ServingClient",
    "ServingDaemon",
    "TableSession",
]
