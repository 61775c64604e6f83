"""Shared fixtures for the serving tests.

The serving stack never trains: every fixture builds a tiny *untrained*
detector (randomly initialised weights around the paper-example
dictionaries), which exercises the full scoring path in milliseconds.
Detectors are function-scoped, so no test serves a model another test
swapped or scored.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataprep import prepare
from repro.inference import InferenceEngine
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


#: A ``City`` value that widens the paper table's encoding from 6 to 46
#: characters.
WIDE_CITY = "Sankt Peter-Ording an der Nordsee in Schleswig"


def wide_prepared(without: str | None = None):
    """The paper tables prepared with ``City`` row 0 set to
    :data:`WIDE_CITY` in both, and the column ``without`` dropped."""
    tables = []
    for table in paper_tables():
        columns = {name: list(table.column(name).values)
                   for name in table.column_names if name != without}
        if "City" in columns:
            columns["City"][0] = WIDE_CITY
        tables.append(Table(columns))
    return prepare(*tables)


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


def cells(detector, values, attribute=None):
    """``(values, attributes)``: ``values`` under one attribute (default:
    the first), the arguments of ``MicroBatcher.submit``."""
    attribute = attribute or detector.prepared.attributes[0]
    return [str(v) for v in values], [attribute] * len(values)


def encode_cells(detector, values, attribute=None):
    """Feature rows for ``values`` under one attribute (default: first)."""
    return _encode(detector, *cells(detector, values, attribute))


def engine_scores(detector, values, attributes):
    """``detector``'s own probabilities for the cells, through a fresh
    engine: the reference a served reply must equal byte for byte."""
    features, lengths = _encode(detector, values, attributes)
    return InferenceEngine(detector.model).predict_proba(features,
                                                         lengths=lengths)
