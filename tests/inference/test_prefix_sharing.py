"""Prefix-shared value scoring: the plan against a set-based oracle, and
the engine's probabilities against the naive packed forward, byte for
byte.

On the fused backend the engine runs TSB-RNN's and ETSB-RNN's character
BiRNN once per distinct value, and each stack once per distinct prefix
(forward) or suffix (reverse) through :class:`~repro.nn.kernels.PrefixPlan`.
The oracle below derives what a plan must hold from Python sets of
prefixes; the property then checks that the engine, whatever the
duplicate, prefix and suffix structure of a call, returns exactly the
bytes of the naive ``predict_proba``.  On the graph
backend the engine keeps the packed path and the property still holds.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.inference import InferenceEngine, PredictionCache
from repro.inference import engine as engine_module
from repro.models import ModelConfig
from repro.models.etsb_rnn import ETSBRNN
from repro.models.tsb_rnn import TSBRNN
from repro.nn import use_backend
from repro.nn.kernels import PrefixPlan
from repro.nn.layers import rnn as rnn_module
from repro.nn.layers.rnn import _reversed_live
from repro.nn.training import predict_proba

pytestmark = pytest.mark.equivalence

WIDTH = 8


def _rows(values):
    """Right-padded code rows and live lengths; ``()`` is an empty value
    (all padding, one live step reading code 0, as the models make it)."""
    codes = np.zeros((len(values), WIDTH), dtype=np.int64)
    lengths = np.empty(len(values), dtype=np.int64)
    for i, value in enumerate(values):
        codes[i, :len(value)] = value
        lengths[i] = max(len(value), 1)
    return codes, lengths


def _live(codes, lengths):
    return [tuple(row[:n].tolist()) for row, n in zip(codes, lengths)]


def assert_plan_matches_oracle(plan, sequences):
    """``plan`` over ``sequences`` (tuples of live codes) holds one node per
    distinct prefix, depth by depth, with the right parents and finals."""
    depth_of_block = np.repeat(np.arange(plan.offsets.shape[0] - 1),
                               np.diff(plan.offsets))
    assert depth_of_block.shape[0] == plan.n_packed
    # Spell every node by following its parent chain; parents always sit
    # in the previous depth's block (or are the zero initial state).
    spelled = []
    for node in range(plan.n_packed):
        parent = int(plan.parents[node])
        depth = depth_of_block[node]
        if depth == 0:
            assert parent == plan.n_packed
            spelled.append((int(plan.codes[node]),))
        else:
            assert depth_of_block[parent] == depth - 1
            spelled.append(spelled[parent] + (int(plan.codes[node]),))
    for depth in range(depth_of_block.max() + 1 if plan.n_packed else 0):
        block = [spelled[k] for k in np.flatnonzero(depth_of_block == depth)]
        prefixes = {s[:depth + 1] for s in sequences if len(s) > depth}
        assert len(block) == len(prefixes), depth
        assert set(block) == prefixes, depth
    for row, sequence in enumerate(sequences):
        assert spelled[plan.final[row]] == sequence


#: Values as code tuples: prefixes of other values, an empty value,
#: one-code values, and a long value whose deep depths hold one node.
EDGE_VALUES = [
    (1, 2, 3), (1, 2), (1,), (1, 2, 4), (), (5,), (2, 2, 3),
    (3, 1, 2, 3, 1, 2, 3, 1), (1, 2, 3),
]


class TestPrefixPlanOracle:
    @pytest.mark.parametrize("reverse", [False, True], ids=["prefix",
                                                             "suffix"])
    def test_edge_values(self, reverse):
        codes, lengths = _rows(EDGE_VALUES)
        if reverse:
            codes = _reversed_live(codes, lengths)
        plan = PrefixPlan(codes, lengths)
        assert_plan_matches_oracle(plan, _live(codes, lengths))
        assert plan.batch == np.diff(plan.offsets).max()
        assert np.diff(plan.offsets)[-1] == 1  # a single-node depth

    def test_one_row(self):
        codes, lengths = _rows([(4, 4, 4)])
        plan = PrefixPlan(codes, lengths)
        assert_plan_matches_oracle(plan, [(4, 4, 4)])
        assert plan.n_packed == 3 and plan.batch == 1
        assert plan.min_rows == 2  # one-node blocks multiply a duplicate

    def test_schedule_gathers_parents(self):
        codes, lengths = _rows(EDGE_VALUES)
        plan = PrefixPlan(codes, lengths)
        schedule = plan.schedule(False)
        assert schedule == plan.schedule(True)
        (lo, hi, first), *rest = schedule
        assert (lo, hi, first) == (0, plan.offsets[1], slice(0, 0))
        for depth, (lo, hi, parents) in enumerate(rest, start=1):
            assert (lo, hi) == tuple(plan.offsets[depth:depth + 2])
            np.testing.assert_array_equal(parents, plan.parents[lo:hi])

    def test_reversed_live_reverses_live_codes_only(self):
        codes, lengths = _rows([(1, 2, 3), (), (7,)])
        got = _reversed_live(codes, lengths)
        assert _live(got, lengths) == [(3, 2, 1), (0,), (7,)]
        assert not got[:, 3:].any()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 3), max_size=WIDTH),
                    min_size=1, max_size=30),
           st.booleans())
    @example([[1, 2, 3], [1, 2], [], [1]], False)
    def test_random_value_sets(self, values, reverse):
        codes, lengths = _rows(values)
        if reverse:
            codes = _reversed_live(codes, lengths)
        plan = PrefixPlan(codes, lengths)
        assert_plan_matches_oracle(plan, _live(codes, lengths))


# -- the engine against the naive packed forward --------------------------------

VOCAB = 9
N_ATTRS = 3
MAX_LEN = 12
TEST_WIDTHS = dict(char_embed_dim=6, value_units=5, num_layers=2,
                   attr_embed_dim=3, attr_units=3, length_dense_units=4,
                   head_units=4)
CELLS = ("rnn", "lstm", "gru")
_MODELS = {}


def _model(architecture, cell, widths):
    key = (architecture, cell, widths)
    if key not in _MODELS:
        config = (ModelConfig(cell_type=cell) if widths == "paper"
                  else ModelConfig(cell_type=cell, **TEST_WIDTHS))
        rng = np.random.default_rng(len(_MODELS))
        model = (TSBRNN(VOCAB, config, rng) if architecture == "tsb"
                 else ETSBRNN(VOCAB, N_ATTRS + 1, config, rng))
        model.eval()
        _MODELS[key] = model
    return _MODELS[key]


@st.composite
def shared_value_calls(draw):
    """Feature rows whose values share prefixes and suffixes heavily: each
    value is a stem, a short middle and an ending from small pools, and
    rows repeat values (a call may hold a single value)."""
    part = st.lists(st.integers(1, VOCAB - 1), max_size=4)
    stems = draw(st.lists(part, min_size=1, max_size=3))
    endings = draw(st.lists(part, min_size=1, max_size=3))
    n_values = draw(st.integers(1, 10))
    pool = []
    for _ in range(n_values):
        value = (draw(st.sampled_from(stems))
                 + draw(st.lists(st.integers(1, 3), max_size=2))
                 + draw(st.sampled_from(endings)))
        pool.append(value[:MAX_LEN])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=40))
    values = np.zeros((len(picks), MAX_LEN), dtype=np.int64)
    lengths = np.empty(len(picks), dtype=np.int64)
    for row, pick in enumerate(picks):
        values[row, :len(pool[pick])] = pool[pick]
        lengths[row] = len(pool[pick])
    attributes = np.array(draw(st.lists(st.integers(1, N_ATTRS),
                                        min_size=len(picks),
                                        max_size=len(picks))))
    features = {"values": values, "attributes": attributes,
                "length_norm": (lengths / MAX_LEN).reshape(-1, 1)}
    return features, lengths


@pytest.mark.parametrize("widths", ["test", "paper"])
@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("architecture", ["tsb", "etsb"])
@settings(max_examples=12, deadline=None)
@given(call=shared_value_calls(), batch_size=st.integers(1, 9),
       window=st.sampled_from([1, 5, 4096]),
       plan_chars=st.sampled_from([1, 7, 8192]), use_lengths=st.booleans())
def test_engine_matches_naive_forward(architecture, cell, widths, call,
                                      batch_size, window, plan_chars,
                                      use_lengths):
    """Byte-equal probabilities for any value structure, chunk size, value
    window (one window, or one per few chunks) and plan size (one plan,
    a few, or one per value)."""
    features, lengths = call
    model = _model(architecture, cell, widths)
    naive = predict_proba(model, features, batch_size=256)
    engine = InferenceEngine(model, cache=PredictionCache(),
                             batch_size=batch_size)
    with mock.patch.object(engine_module, "VALUE_WINDOW", window), \
            mock.patch.object(rnn_module, "PLAN_CHARS", plan_chars):
        got = engine.predict_proba(
            features, lengths=lengths if use_lengths else None)
    assert got.tobytes() == naive.tobytes()


@pytest.mark.parametrize("architecture", ["tsb", "etsb"])
def test_single_value_call(architecture):
    """One value under three attributes: every depth block of both plans
    has one node, and each plan as many nodes as characters."""
    model = _model(architecture, "rnn", "paper")
    features = {"values": np.array([[3, 1, 4, 1, 5, 0]] * 3),
                "attributes": np.array([1, 2, 3]),
                "length_norm": np.full((3, 1), 5 / 6)}
    naive = predict_proba(model, features)
    got = InferenceEngine(model, batch_size=2).predict_proba(features)
    assert got.tobytes() == naive.tobytes()


def test_fused_engine_shares_values_once_per_window():
    """The engine takes the prefix-shared path on the fused backend only,
    for calls of more than one chunk of representatives, and evaluates
    each distinct value of a window once."""
    model = _model("etsb", "rnn", "test")
    features = {"values": np.array([[1, 2, 0], [1, 2, 0], [1, 3, 0]] * 3),
                "attributes": np.array([1, 2, 1] * 3),
                "length_norm": np.full((9, 1), 0.5)}
    calls = []
    original = model.distinct_value_states

    def spy(values):
        calls.append(values.shape[0])
        states, inverse = original(values)
        calls.append(states.shape[0])
        return states, inverse

    with mock.patch.object(model, "distinct_value_states", spy):
        with use_backend("graph"):
            InferenceEngine(model, batch_size=2).predict_proba(features)
        assert calls == []
        with use_backend("fused"):
            InferenceEngine(model, batch_size=3).predict_proba(features)
            assert calls == []  # one chunk: the packed path
            InferenceEngine(model, batch_size=2).predict_proba(features)
    # 3 representatives (attribute 1 and 2 of "12", and "13"); 2 values.
    assert calls == [3, 2]
