"""Tests for the six benchmark dataset generators and the registry."""

import numpy as np
import pytest

from repro.datasets import DATASET_NAMES, dataset_spec, load
from repro.datasets.base import DatasetPair
from repro.errors import DataError
from repro.table import Table

SMALL = 150


@pytest.fixture(scope="module", params=DATASET_NAMES)
def pair(request) -> DatasetPair:
    return load(request.param, n_rows=SMALL, seed=11)


class TestAllGenerators:
    def test_shapes_match(self, pair):
        assert pair.dirty.shape == pair.clean.shape
        assert pair.n_rows == SMALL

    def test_attribute_count_matches_paper(self, pair):
        assert pair.n_attributes == dataset_spec(pair.name).paper_attributes

    def test_error_rate_close_to_paper(self, pair):
        target = dataset_spec(pair.name).paper_error_rate
        assert pair.measured_error_rate() == pytest.approx(target, abs=0.02)

    def test_ledger_consistent_with_mask(self, pair):
        mask = pair.error_mask()
        ledger_cells = {(e.row, e.attribute) for e in pair.errors}
        attr_pos = {a: j for j, a in enumerate(pair.dirty.column_names)}
        for row, attr in ledger_cells:
            assert mask[row][attr_pos[attr]], \
                f"{pair.name}: ledger entry ({row},{attr}) not in mask"

    def test_error_mask_equals_the_row_wise_comparison(self, pair):
        def norm(value):
            return "" if value is None else str(value).lstrip()

        names = pair.dirty.column_names
        expected = [[norm(dirty[name]) != norm(clean[name]) for name in names]
                    for dirty, clean in zip(pair.dirty.iter_rows(),
                                            pair.clean.iter_rows())]
        mask = pair.error_mask()
        assert mask.dtype == bool
        assert mask.tolist() == expected

    def test_error_types_match_table2(self, pair):
        assert pair.error_types == dataset_spec(pair.name).error_types

    def test_injected_types_subset_of_declared(self, pair):
        injected = {e.error_type.value for e in pair.errors}
        assert injected <= set(pair.error_types)

    def test_all_declared_types_injected(self, pair):
        injected = {e.error_type.value for e in pair.errors}
        assert injected == set(pair.error_types), \
            f"{pair.name}: declared {pair.error_types}, injected {injected}"

    def test_deterministic_per_seed(self, pair):
        again = load(pair.name, n_rows=SMALL, seed=11)
        assert again.dirty == pair.dirty
        assert again.clean == pair.clean

    def test_seeds_differ(self, pair):
        other = load(pair.name, n_rows=SMALL, seed=99)
        assert other.dirty != pair.dirty

    def test_cells_are_strings(self, pair):
        for name in pair.dirty.column_names:
            for value in pair.dirty.column(name).values[:20]:
                assert isinstance(value, str)

    def test_reasonable_character_inventory(self, pair):
        assert pair.distinct_characters() > 20

    def test_stats_row(self, pair):
        row = pair.stats().as_row()
        assert row["Name"] == pair.name
        assert "x" in row["Size"]


class TestSpecificDatasets:
    def test_hospital_typos_use_x(self):
        pair = load("hospital", n_rows=100, seed=0)
        typos = [e for e in pair.errors if e.error_type.value == "T"]
        assert typos
        assert all("x" in e.corrupted.lower() for e in typos)

    def test_beers_ounces_formatting(self):
        pair = load("beers", n_rows=200, seed=0)
        fi = [e for e in pair.errors
              if e.attribute == "ounces" and e.error_type.value == "FI"]
        assert fi
        assert all(e.corrupted.endswith(" oz") for e in fi)

    def test_flights_sources_share_flights(self):
        pair = load("flights", n_rows=120, seed=0)
        flights = pair.clean.column("flight").values
        assert len(set(flights)) < len(flights)  # duplicated across sources

    def test_movies_thousands_separator(self):
        pair = load("movies", n_rows=300, seed=0)
        fi = [e for e in pair.errors if e.attribute == "rating_count"]
        assert fi
        assert all("," in e.corrupted for e in fi)

    def test_tax_zip_leading_zero_errors(self):
        pair = load("tax", n_rows=400, seed=0)
        fi = [e for e in pair.errors if e.attribute == "zip"]
        assert fi
        assert all(e.original.startswith("0") for e in fi)

    def test_rayyan_issn_flip(self):
        pair = load("rayyan", n_rows=200, seed=0)
        fi = [e for e in pair.errors if e.attribute == "journal_issn"]
        assert fi
        assert all("-" in e.corrupted for e in fi)

    def test_tax_marital_consistency_in_clean(self):
        """The clean Tax table satisfies the marital/child dependency."""
        pair = load("tax", n_rows=300, seed=0)
        for row in pair.clean.iter_rows():
            if row["marital_status"] == "S":
                assert row["has_child"] == "N"


class TestRegistry:
    def test_all_names_present(self):
        assert set(DATASET_NAMES) == {
            "beers", "flights", "hospital", "movies", "rayyan", "tax"}

    def test_unknown_name_rejected(self):
        with pytest.raises(DataError, match="unknown dataset"):
            load("ghosts")

    def test_spec_paper_numbers(self):
        spec = dataset_spec("tax")
        assert spec.paper_rows == 200_000
        assert spec.paper_attributes == 15

    def test_error_rate_override(self):
        pair = load("beers", n_rows=200, seed=0, error_rate=0.02)
        assert pair.measured_error_rate() == pytest.approx(0.02, abs=0.01)

    def test_n_rows_validation(self):
        with pytest.raises(DataError):
            load("beers", n_rows=1)

    def test_dataset_pair_validation(self):
        with pytest.raises(DataError):
            DatasetPair(name="bad", dirty=Table({"a": ["1"]}),
                        clean=Table({"a": ["1", "2"]}))
        with pytest.raises(DataError):
            DatasetPair(name="bad", dirty=Table({"a": ["1"]}),
                        clean=Table({"b": ["1"]}))


class TestLoadPairFromCsv:
    def test_round_trip_through_csv(self, tmp_path):
        from repro.datasets import load_pair_from_csv
        from repro.table import write_csv
        pair = load("beers", n_rows=30, seed=0)
        write_csv(pair.dirty, tmp_path / "dirty.csv")
        write_csv(pair.clean, tmp_path / "clean.csv")
        loaded = load_pair_from_csv(tmp_path / "dirty.csv",
                                    tmp_path / "clean.csv", name="beers-csv")
        assert loaded.name == "beers-csv"
        assert loaded.dirty.shape == pair.dirty.shape
        assert loaded.errors == ()

    def test_positional_column_alignment(self, tmp_path):
        from repro.datasets import load_pair_from_csv
        (tmp_path / "d.csv").write_text("colA,colB\n1,2\n")
        (tmp_path / "c.csv").write_text("a,b\n1,9\n")
        pair = load_pair_from_csv(tmp_path / "d.csv", tmp_path / "c.csv")
        assert pair.dirty.column_names == ["a", "b"]
        assert pair.measured_error_rate() == 0.5

    def test_column_count_mismatch_rejected(self, tmp_path):
        from repro.datasets import load_pair_from_csv
        (tmp_path / "d.csv").write_text("a\n1\n")
        (tmp_path / "c.csv").write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_pair_from_csv(tmp_path / "d.csv", tmp_path / "c.csv")
