"""Table sessions: incremental re-scoring and the swap fallback."""

import numpy as np
import pytest

from repro.dataprep.encoding import table_cells
from repro.errors import ConfigurationError
from repro.serving.session import TableSession
from repro.table import Table

from tests.serving.conftest import (
    build_detector,
    engine_scores,
    wide_prepared,
)


def edited_scores(detector, table, row, column, value):
    """``detector``'s one-shot scores of ``table`` with one cell edited,
    in a session's cell order."""
    columns = {name: list(table.column(name).values)
               for name in table.column_names}
    columns[column][row] = value
    _, values, attributes = table_cells(Table(columns),
                                        detector.prepared.attributes)
    return engine_scores(detector, values, attributes)


@pytest.fixture
def session(served, batcher, dirty_table):
    batcher.start()
    return TableSession("t", served, dirty_table, batcher)


class TestGeometry:
    def test_feature_rows_are_column_major(self, session, dirty_table):
        n = dirty_table.n_rows
        assert session.n_feature_rows == n * len(session.columns)
        for j, column in enumerate(session.columns):
            for row in range(n):
                assert session.feature_row(row, column) == j * n + row

    def test_unknown_column_rejected(self, session):
        with pytest.raises(ConfigurationError):
            session.feature_row(0, "ghost")

    def test_row_out_of_range_rejected(self, session):
        with pytest.raises(ConfigurationError):
            session.feature_row(99, session.columns[0])

    def test_no_matching_columns_rejected(self, served, batcher):
        batcher.start()
        with pytest.raises(ConfigurationError):
            TableSession("t", served, Table({"unrelated": ["a", "b"]}),
                         batcher)


class TestIncrementalUpdate:
    def test_update_rescores_one_row(self, session):
        record = session.update(1, session.columns[0], "999")
        assert record["n_rescored"] == 1
        assert record["full_rescore"] is False
        assert record["n_feature_rows"] == session.n_feature_rows
        assert session.values[session.feature_row(1, session.columns[0])] \
            == "999"

    def test_updated_scores_match_fresh_full_pass(self, served, batcher,
                                                  session, dirty_table):
        column = session.columns[1]
        session.update(3, column, "different")
        # A brand-new session over the edited table pays one full
        # scoring pass; the incrementally maintained probabilities must
        # be byte-identical to it.
        edited = {name: list(dirty_table.column(name).values)
                  for name in dirty_table.column_names}
        edited[column][3] = "different"
        fresh = TableSession("fresh", served, Table(edited), batcher)
        np.testing.assert_array_equal(session.probabilities,
                                      fresh.probabilities)

    def test_update_none_clears_the_cell(self, session):
        record = session.update(0, session.columns[0], None)
        assert session.values[session.feature_row(0, session.columns[0])] == ""
        assert record["n_rescored"] == 1

    def test_replace_swap_with_wider_encoder_recovers(self, served,
                                                      session, dirty_table):
        # A swap that widens the encoding (max_length 6 -> 46) re-scores
        # the whole table under the new model: the session then holds
        # exactly the new model's one-shot scores of the edited table.
        wide = build_detector(wide_prepared())
        assert wide.prepared.max_length > served.detector.prepared.max_length
        served.swap(detector=wide)
        column = session.columns[0]
        record = session.update(0, column, "x")
        assert record["full_rescore"] is True
        assert record["n_rescored"] == session.n_feature_rows
        assert record["weights_version"] == 1
        want = edited_scores(wide, dirty_table, 0, column, "x")
        assert session.probabilities.tobytes() == want.tobytes()
        # The session keeps working incrementally afterwards.
        record = session.update(1, session.columns[0], "y")
        assert record["full_rescore"] is False
        assert record["n_rescored"] == 1

    def test_mid_update_width_change_falls_back_to_full(
            self, served, batcher, session, dirty_table):
        # The swap lands after update()'s version check and before its
        # one-cell batch runs: the batch reports the new version, so the
        # untouched rows, scored by the old model, are re-scored too.
        wide = build_detector(wide_prepared())

        def submit_then_swap(*request):
            del batcher.submit  # the full pass that follows submits plainly
            # Holding the swap lock keeps the batch from running before
            # the swap.
            with served.lock:
                future = batcher.submit(*request)
                served.swap(detector=wide)
            return future

        batcher.submit = submit_then_swap
        column = session.columns[0]
        record = session.update(0, column, "x")
        assert record["full_rescore"] is True
        assert record["n_rescored"] == 1 + session.n_feature_rows
        assert record["weights_version"] == 1
        want = edited_scores(wide, dirty_table, 0, column, "x")
        assert session.probabilities.tobytes() == want.tobytes()

    def test_swap_dropping_a_served_column_is_rejected(self, served,
                                                       session):
        dropped = session.columns[0]
        served.swap(detector=build_detector(wide_prepared(without=dropped)))
        with pytest.raises(ConfigurationError,
                           match=f"never saw attribute '{dropped}'"):
            session.update(0, session.columns[1], "x")

    def test_swap_forces_full_rescore(self, prepared, served, session):
        served.swap(detector=build_detector(prepared, seed=1))
        record = session.update(0, session.columns[0], "x")
        assert record["full_rescore"] is True
        assert record["n_rescored"] == session.n_feature_rows
        assert record["weights_version"] == 1
        # The next update is incremental again.
        record = session.update(1, session.columns[0], "y")
        assert record["full_rescore"] is False
        assert record["n_rescored"] == 1


class TestFeedbackAndStats:
    def test_flagged_matches_predictions(self, session):
        predictions = session.probabilities.argmax(axis=1)
        flagged = session.flagged()
        assert len(flagged) == int((predictions == 1).sum())
        for row, attribute, value in flagged:
            index = session.feature_row(row, attribute)
            assert predictions[index] == 1
            assert session.values[index] == value

    def test_stats_shape(self, session, dirty_table):
        stats = session.stats()
        assert stats["n_table_rows"] == dirty_table.n_rows
        assert stats["n_feature_rows"] == session.n_feature_rows
        assert stats["weights_version"] == 0
        # Sessions hold no user labels: feedback left the protocol.
        assert "n_feedback" not in stats
