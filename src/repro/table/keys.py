"""Functional-dependency discovery.

Section 5.7 of the paper lists exploiting *functional dependencies*
between attributes as future work.  This module mines approximate
dependencies; they feed the rule-violation strategy of the Raha-style
baseline (:mod:`repro.baselines.strategies`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.table.table import Table


@dataclass(frozen=True)
class FunctionalDependency:
    """An (approximate) functional dependency ``lhs -> rhs``.

    Attributes
    ----------
    lhs:
        Determinant column names (sorted tuple).
    rhs:
        Dependent column name.
    support:
        Fraction of rows participating in a determinant group with more
        than one row (dependencies seen only on singleton groups carry no
        evidence).
    violation_rate:
        Fraction of rows that disagree with their group's majority RHS
        value.  ``0.0`` means the dependency holds exactly.
    """

    lhs: tuple[str, ...]
    rhs: str
    support: float
    violation_rate: float


def discover_functional_dependencies(
    table: Table,
    max_lhs_size: int = 1,
    max_violation_rate: float = 0.05,
    min_support: float = 0.05,
) -> list[FunctionalDependency]:
    """Mine approximate functional dependencies ``lhs -> rhs``.

    A dependency is reported when, grouping rows by the LHS values, at most
    ``max_violation_rate`` of the rows in multi-row groups deviate from
    their group's majority RHS value, and at least ``min_support`` of all
    rows lie in multi-row groups (so the dependency was actually tested).

    Rows with a missing LHS or RHS cell are ignored for that dependency.
    """
    results: list[FunctionalDependency] = []
    names = table.column_names
    n_rows = table.n_rows
    if n_rows == 0:
        return results
    for size in range(1, max_lhs_size + 1):
        for lhs in itertools.combinations(names, size):
            lhs_cols = [table.column(n).values for n in lhs]
            for rhs in names:
                if rhs in lhs:
                    continue
                rhs_col = table.column(rhs).values
                groups: dict[tuple, dict] = {}
                for i in range(n_rows):
                    key = tuple(c[i] for c in lhs_cols)
                    if None in key or rhs_col[i] is None:
                        continue
                    counts = groups.setdefault(key, {})
                    counts[rhs_col[i]] = counts.get(rhs_col[i], 0) + 1
                tested = 0
                violations = 0
                for counts in groups.values():
                    total = sum(counts.values())
                    if total < 2:
                        continue
                    tested += total
                    violations += total - max(counts.values())
                if tested == 0:
                    continue
                support = tested / n_rows
                violation_rate = violations / tested
                if support >= min_support and violation_rate <= max_violation_rate:
                    results.append(FunctionalDependency(
                        lhs=tuple(sorted(lhs)), rhs=rhs,
                        support=support, violation_rate=violation_rate,
                    ))
    return results


def fd_violating_rows(table: Table, fd: FunctionalDependency) -> list[int]:
    """Row indices that deviate from the majority RHS value of their group."""
    lhs_cols = [table.column(n).values for n in fd.lhs]
    rhs_col = table.column(fd.rhs).values
    groups: dict[tuple, dict] = {}
    membership: list[tuple | None] = []
    for i in range(table.n_rows):
        key = tuple(c[i] for c in lhs_cols)
        if None in key or rhs_col[i] is None:
            membership.append(None)
            continue
        membership.append(key)
        counts = groups.setdefault(key, {})
        counts[rhs_col[i]] = counts.get(rhs_col[i], 0) + 1
    majority = {
        key: max(counts, key=counts.get)
        for key, counts in groups.items()
        if sum(counts.values()) >= 2
    }
    return [
        i for i, key in enumerate(membership)
        if key is not None and key in majority and rhs_col[i] != majority[key]
    ]
