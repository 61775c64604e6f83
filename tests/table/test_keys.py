"""Tests for repro.table.keys (functional dependencies)."""

import pytest

from repro.table import Table, discover_functional_dependencies
from repro.table.keys import FunctionalDependency, fd_violating_rows


@pytest.fixture
def cities() -> Table:
    # city -> state holds except one violating row (row 4).
    return Table({
        "id": ["1", "2", "3", "4", "5", "6"],
        "city": ["Rome", "Rome", "Paris", "Paris", "Rome", "Paris"],
        "state": ["IT", "IT", "FR", "FR", "FR", "FR"],
    })


class TestFunctionalDependencies:
    def test_exact_fd_found(self, cities):
        fds = discover_functional_dependencies(
            cities, max_violation_rate=0.5)
        assert any(fd.lhs == ("city",) and fd.rhs == "state" for fd in fds)

    def test_violation_rate_measured(self, cities):
        fds = discover_functional_dependencies(cities, max_violation_rate=0.5)
        fd = next(f for f in fds if f.lhs == ("city",) and f.rhs == "state")
        # 6 rows in multi-row groups, 1 deviates from its group majority.
        assert fd.violation_rate == pytest.approx(1 / 6)

    def test_strict_threshold_excludes_noisy_fd(self, cities):
        fds = discover_functional_dependencies(cities, max_violation_rate=0.01)
        assert not any(fd.lhs == ("city",) and fd.rhs == "state" for fd in fds)

    def test_unique_lhs_has_no_support(self, cities):
        # id is unique: every group is a singleton, no evidence.
        fds = discover_functional_dependencies(cities, max_violation_rate=0.5)
        assert not any(fd.lhs == ("id",) for fd in fds)

    def test_missing_cells_ignored(self):
        table = Table({"a": ["x", "x", None], "b": ["1", "1", "2"]})
        fds = discover_functional_dependencies(table)
        assert any(fd.lhs == ("a",) and fd.rhs == "b" for fd in fds)

    def test_empty_table(self):
        assert discover_functional_dependencies(Table({"a": [], "b": []})) == []

    def test_multi_column_lhs(self):
        # c is determined only by (a, b) jointly; need duplicates to see it.
        doubled = Table({
            "a": ["1", "1", "2", "2"] * 2,
            "b": ["x", "y", "x", "y"] * 2,
            "c": ["p", "q", "r", "s"] * 2,
        })
        fds = discover_functional_dependencies(doubled, max_lhs_size=2)
        assert any(fd.lhs == ("a", "b") and fd.rhs == "c" for fd in fds)


class TestViolatingRows:
    def test_violating_row_identified(self, cities):
        fd = FunctionalDependency(("city",), "state", 1.0, 1 / 6)
        assert fd_violating_rows(cities, fd) == [4]

    def test_no_violations(self):
        table = Table({"a": ["x", "x"], "b": ["1", "1"]})
        fd = FunctionalDependency(("a",), "b", 1.0, 0.0)
        assert fd_violating_rows(table, fd) == []

    def test_singleton_groups_never_violate(self):
        table = Table({"a": ["x", "y"], "b": ["1", "2"]})
        fd = FunctionalDependency(("a",), "b", 0.0, 0.0)
        assert fd_violating_rows(table, fd) == []
