"""Table sessions: incremental re-scoring and the swap fallback."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving.session import TableSession
from repro.table import Table

from tests.serving.conftest import build_detector, paper_tables


def _wider_prepared():
    """A prepared dataset over the same columns with a larger max_length."""
    from repro.dataprep import prepare

    dirty, clean = paper_tables()
    wide_dirty = {c: list(dirty.column(c).values) for c in dirty.column_names}
    wide_clean = {c: list(clean.column(c).values) for c in clean.column_names}
    wide_dirty["City"][0] = "Sankt Peter-Ording an der Nordsee"
    wide_clean["City"][0] = "Sankt Peter-Ording an der Nordsee"
    return prepare(Table(wide_dirty), Table(wide_clean))


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

    def test_affected_rows_is_the_edited_cell(self, session):
        affected = session.affected_feature_rows(2, session.columns[1])
        np.testing.assert_array_equal(
            affected, [session.feature_row(2, session.columns[1])])

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
                                                      session):
        # A swap that changes the encoder's max_length must
        # rebuild the session's feature arrays wholesale; writing into
        # the old-width arrays would raise and wedge the session.
        wide = _wider_prepared()
        old_width = session.features["values"].shape[1]
        assert wide.max_length > old_width
        served.swap(detector=build_detector(wide))
        record = session.update(0, session.columns[0], "x")
        assert record["full_rescore"] is True
        assert session.features["values"].shape[1] == wide.max_length
        # The session keeps working incrementally afterwards.
        record = session.update(1, session.columns[0], "y")
        assert record["full_rescore"] is False
        assert record["n_rescored"] == 1

    def test_mid_update_width_change_falls_back_to_full(self, served,
                                                        session):
        wide = _wider_prepared()
        served.swap(detector=build_detector(wide))
        # Simulate the swap landing after update()'s version check: the
        # incremental re-encode then produces rows of the new width,
        # which must trigger the full-rescore fallback, not a crash.
        session.scored_version = served.version
        record = session.update(0, session.columns[0], "x")
        assert record["full_rescore"] is True
        assert session.features["values"].shape[1] == wide.max_length

    def test_swap_dropping_a_served_column_is_rejected(self, served,
                                                       session):
        from repro.dataprep import prepare

        dirty, clean = paper_tables()
        dropped = session.columns[0]
        narrow = prepare(
            Table({c: list(dirty.column(c).values)
                   for c in dirty.column_names if c != dropped}),
            Table({c: list(clean.column(c).values)
                   for c in clean.column_names if c != dropped}))
        served.swap(detector=build_detector(narrow))
        with pytest.raises(ConfigurationError, match="reload the session"):
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
        predictions = session.predictions()
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
