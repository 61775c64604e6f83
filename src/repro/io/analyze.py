"""Per-column type and pattern analyzers.

Given a column of raw string cells, :func:`analyze_column` decides what
the column *is* (date, number, identifier, free text) and how strongly
the cells agree with that verdict.  The profile carries locale evidence
-- decimal comma vs decimal point, day-first vs month-first date order
-- because real exports drift between locales, and the taxonomy's
format-drift error family injects exactly that drift.

The analyzers are pure functions of the cell values: analyzing the same
values twice (or after a CSV round trip that preserves them) always
yields the same verdict, which the Hypothesis round-trip suite asserts.

:func:`conforming_mask` is the bridge to detection without labels: a
cell that does not match its column's dominant pattern is a *suspect*,
and the ``repro detect <path>`` weak-label path trains the BiRNN on
those suspicions.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.table import Table


class ColumnKind(enum.Enum):
    """What a column's cells predominantly are."""

    DATE = "date"
    NUMBER = "number"
    IDENTIFIER = "identifier"
    TEXT = "text"
    EMPTY = "empty"


#: Date patterns with the order evidence they carry.  Numeric patterns
#: are ambiguous between day-first and month-first; the analyzer
#: resolves the order by looking at the value ranges.
_DATE_SEPARATED = re.compile(r"^(\d{1,4})([-/.])(\d{1,2})\2(\d{1,4})$")
_DATE_MONTHNAME = re.compile(
    r"^\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\s+\d{2,4}$"
    r"|^(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\s+\d{1,2},?\s+\d{2,4}$",
    re.IGNORECASE)

_NUMBER_POINT = re.compile(r"^[+-]?(\d{1,3}(,\d{3})+|\d+)(\.\d+)?$")
_NUMBER_COMMA = re.compile(r"^[+-]?(\d{1,3}(\.\d{3})+|\d+)(,\d+)?$")

#: Character classes for identifier skeletons: runs of digits collapse
#: to ``9``, runs of letters to ``A``; everything else stays literal.
_SKELETON_RUNS = re.compile(r"[0-9]+|[^\W\d_]+|.", re.DOTALL)
#: The same runs in ASCII text, which has no other letters or digits.
_ASCII_DIGIT_RUNS = re.compile(r"[0-9]+")
_ASCII_LETTER_RUNS = re.compile(r"[A-Za-z]+")


@dataclass(frozen=True)
class ColumnProfile:
    """Verdict for one column.

    Attributes
    ----------
    name:
        Column name.
    kind:
        The dominant :class:`ColumnKind`.
    conformance:
        Fraction of non-missing cells matching the dominant pattern.
    pattern:
        Human-readable description of the dominant pattern (the modal
        skeleton for identifiers, the winning regex family otherwise).
    n_cells, n_missing, n_distinct:
        Basic occupancy statistics (missing = ``None`` or empty).
    decimal_comma:
        ``True`` when the number evidence is comma-decimal (locale
        drift signal); ``None`` for non-number columns.
    day_first:
        ``True`` for day-first dates, ``False`` for month/year-first;
        ``None`` when undecidable or not a date column.
    verdicts:
        Whether each analysed value (stripped, the empty value
        included) conforms to the dominant pattern: the analysis's own
        matches, which :func:`conforming_mask` looks up.  Not part of
        the profile's equality.
    """

    name: str
    kind: ColumnKind
    conformance: float
    pattern: str
    n_cells: int
    n_missing: int
    n_distinct: int
    decimal_comma: bool | None = None
    day_first: bool | None = None
    verdicts: dict[str, bool] = field(default_factory=dict, compare=False,
                                      repr=False)


def _norm(value: object) -> str:
    return "" if value is None else str(value).strip()


def skeleton(text: str) -> str:
    """Collapse a value to its character-class skeleton.

    ``"AB-1234"`` -> ``"A-9"``; ``"2021-01-02"`` -> ``"9-9-9"``.  Runs
    of digits and letters collapse so identifiers of varying widths
    share one skeleton.
    """
    if text.isascii():
        # Two substitutions in C give what the token loop below gives.
        return _ASCII_LETTER_RUNS.sub("A", _ASCII_DIGIT_RUNS.sub("9", text))
    parts = []
    for match in _SKELETON_RUNS.finditer(text):
        token = match.group(0)
        if token[0].isdigit():
            parts.append("9")
        elif token[0].isalpha():
            parts.append("A")
        else:
            parts.append(token)
    return "".join(parts)


def _match_date(text: str) -> tuple[bool, bool | None]:
    """(is_date, day_first_evidence) for one cell."""
    if _DATE_MONTHNAME.match(text):
        return True, None
    match = _DATE_SEPARATED.match(text)
    if not match:
        return False, None
    first, last = match.group(1), match.group(4)
    second = int(match.group(3))
    if not (1 <= second <= 31):
        return False, None
    if len(first) == 4:          # ISO: year first, month second
        return (1 <= second <= 12), False
    a = int(first)
    if len(last) not in (2, 4) or a == 0:
        return False, None
    if a > 31:
        return False, None
    if a > 12:                   # first field can only be a day
        return True, True
    if second > 12:              # second field can only be a day
        return True, False
    return True, None            # ambiguous (both <= 12)


def analyze_column(name: str, values: Sequence[object]) -> ColumnProfile:
    """Profile one column of raw cells (see module docstring).

    Each distinct value is matched once and its verdicts are weighted by
    its count.  Values are counted in first-occurrence order, so the
    skeleton tally breaks ties as a cell-by-cell pass would.
    """
    counts = Counter(map(_norm, values))
    n_cells = sum(counts.values())
    n_missing = counts.pop("", 0)
    n_distinct = len(counts)
    if not counts:
        return ColumnProfile(name=name, kind=ColumnKind.EMPTY,
                             conformance=1.0, pattern="(empty)",
                             n_cells=n_cells, n_missing=n_missing,
                             n_distinct=0, verdicts={"": False})

    date_hits = day_first_votes = month_first_votes = 0
    number_hits = comma_votes = point_votes = 0
    skeletons: Counter[str] = Counter()
    dates, numbers, shapes = [], [], []
    for cell, count in counts.items():
        is_date, day_first = _match_date(cell)
        dates.append(is_date)
        if is_date:
            date_hits += count
            if day_first is True:
                day_first_votes += count
            elif day_first is False:
                month_first_votes += count
        numbers.append(True)
        if _NUMBER_POINT.match(cell):
            number_hits += count
            if "." in cell:
                point_votes += count
        elif _NUMBER_COMMA.match(cell):
            number_hits += count
            if "," in cell:
                comma_votes += count
        else:
            numbers[-1] = False
        shapes.append(skeleton(cell))
        skeletons[shapes[-1]] += count
    modal_skeleton, skeleton_hits = skeletons.most_common(1)[0]

    def verdicts(matches) -> dict[str, bool]:
        return {"": False, **dict(zip(counts, matches))}

    n = n_cells - n_missing
    if date_hits / n >= 0.6 and date_hits >= number_hits:
        day_first = None
        if day_first_votes or month_first_votes:
            day_first = day_first_votes > month_first_votes
        return ColumnProfile(
            name=name, kind=ColumnKind.DATE, conformance=date_hits / n,
            pattern="date", n_cells=n_cells, n_missing=n_missing,
            n_distinct=n_distinct, day_first=day_first,
            verdicts=verdicts(dates))
    if number_hits / n >= 0.6:
        return ColumnProfile(
            name=name, kind=ColumnKind.NUMBER, conformance=number_hits / n,
            pattern="number(decimal comma)" if comma_votes > point_votes
            else "number", n_cells=n_cells, n_missing=n_missing,
            n_distinct=n_distinct, decimal_comma=comma_votes > point_votes,
            verdicts=verdicts(numbers))
    # Identifier: one structural skeleton dominates and the values are
    # not just prose (prose skeletons are long A A A... runs that rarely
    # repeat exactly).
    if skeleton_hits / n >= 0.6 and len(modal_skeleton) <= 24 \
            and modal_skeleton not in ("A", ""):
        return ColumnProfile(
            name=name, kind=ColumnKind.IDENTIFIER,
            conformance=skeleton_hits / n, pattern=modal_skeleton,
            n_cells=n_cells, n_missing=n_missing, n_distinct=n_distinct,
            verdicts=verdicts(shape == modal_skeleton for shape in shapes))
    return ColumnProfile(
        name=name, kind=ColumnKind.TEXT,
        conformance=skeleton_hits / n, pattern=modal_skeleton,
        n_cells=n_cells, n_missing=n_missing, n_distinct=n_distinct,
        verdicts=verdicts([True] * n_distinct))


def analyze_table(table: Table) -> dict[str, ColumnProfile]:
    """Profile every column of ``table`` (insertion order preserved)."""
    return {name: analyze_column(name, table.column(name).values)
            for name in table.column_names}


def _cell_conforms(profile: ColumnProfile, cell: str) -> bool:
    if not cell:
        return False
    if profile.kind is ColumnKind.DATE:
        return _match_date(cell)[0]
    if profile.kind is ColumnKind.NUMBER:
        return bool(_NUMBER_POINT.match(cell) or _NUMBER_COMMA.match(cell))
    if profile.kind is ColumnKind.IDENTIFIER:
        return skeleton(cell) == profile.pattern
    return True  # free text: any non-empty cell conforms


def conforming_mask(profile: ColumnProfile,
                    values: Sequence[object]) -> list[bool]:
    """Per-cell conformance with the column's dominant pattern.

    Missing cells never conform (they are exactly the MV error family);
    free-text columns accept any non-empty cell.  The complement of
    this mask is the weak-label signal for unlabeled detection.  A value
    the analysis saw (after stripping) takes the analysis's verdict;
    any other is matched here.
    """
    verdicts = profile.verdicts
    out = []
    for value in values:
        cell = _norm(value)
        verdict = verdicts.get(cell)
        out.append(_cell_conforms(profile, cell) if verdict is None
                   else verdict)
    return out
