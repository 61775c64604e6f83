"""Shared fixtures for the serving tests.

The serving stack never trains: every fixture builds a tiny *untrained*
detector (randomly initialised weights around the paper-example
dictionaries), which exercises the full scoring path in milliseconds.
Detectors are function-scoped because a hot swap moves the incoming
model's weights version.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataprep import prepare
from repro.models import ErrorDetector, ModelConfig
from repro.models.detector import build_model
from repro.serving import MicroBatcher, ServedModel
from repro.serving.session import _encode
from repro.table import Table

TINY = ModelConfig(char_embed_dim=8, value_units=16, num_layers=1,
                   attr_embed_dim=4, attr_units=4, length_dense_units=4,
                   head_units=8)


def paper_tables() -> tuple[Table, Table]:
    dirty = Table({
        "A": ["21", "45", "30", "12", "26"],
        "Sal": ["80,000", "98000", "92000", "99000", "850"],
        "ZIP": ["8000", "00100", "75000", "BER", "75000"],
        "City": ["NaN", "Romr", "Paris", "Berlin", "Vienna"],
    })
    clean = Table({
        "A": ["21", "45", "30", "42", "26"],
        "Sal": ["80000", "98000", "92000", "99000", "85000"],
        "ZIP": ["8000", "00100", "75000", "10115", "1010"],
        "City": ["Zurich", "Rome", "Paris", "Berlin", "Vienna"],
    })
    return dirty, clean


@pytest.fixture(scope="session")
def prepared():
    dirty, clean = paper_tables()
    return prepare(dirty, clean)


def build_detector(prepared, architecture: str = "etsb",
                   seed: int = 0, config: ModelConfig = TINY) -> ErrorDetector:
    """An untrained but fully servable detector over ``prepared``."""
    detector = ErrorDetector(architecture=architecture, model_config=config)
    detector.model = build_model(architecture, prepared, config,
                                 np.random.default_rng(seed))
    detector.model.eval()
    detector.prepared = prepared
    return detector


@pytest.fixture
def detector(prepared) -> ErrorDetector:
    return build_detector(prepared)


@pytest.fixture
def dirty_table() -> Table:
    return paper_tables()[0]


@pytest.fixture
def served(detector) -> ServedModel:
    return ServedModel(detector=detector, cache_size=4096)


@pytest.fixture
def batcher(served) -> MicroBatcher:
    batcher = MicroBatcher(served, max_delay_s=0.002)
    yield batcher
    batcher.close()


def encode_cells(detector, values, attribute=None):
    """Feature rows for ``values`` under one attribute (default: first)."""
    attribute = attribute or detector.prepared.attributes[0]
    return _encode(detector, [str(v) for v in values],
                   [attribute] * len(values))
