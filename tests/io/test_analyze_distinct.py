"""``analyze_column`` profiles each distinct value once; the verdict must
equal a cell-by-cell pass.

The reference below is the analyzer's per-cell loop: every present cell
runs the date matcher, both number patterns and ``skeleton`` on its own,
and the skeleton tally counts cells in column order.  The production
analyzer counts values first and weights each distinct value's verdicts
by its count; the profiles must agree field for field, including which
skeleton wins a tie.
"""

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.io.analyze import (
    _NUMBER_COMMA,
    _NUMBER_POINT,
    ColumnKind,
    ColumnProfile,
    _match_date,
    _norm,
    analyze_column,
    conforming_mask,
    skeleton,
)

pytestmark = pytest.mark.equivalence


def reference_analyze_column(name, values):
    """The per-cell analyzer loop."""
    cells = [_norm(v) for v in values]
    present = [c for c in cells if c]
    n_missing = len(cells) - len(present)
    n_distinct = len(set(present))
    if not present:
        return ColumnProfile(name=name, kind=ColumnKind.EMPTY,
                             conformance=1.0, pattern="(empty)",
                             n_cells=len(cells), n_missing=n_missing,
                             n_distinct=0)
    date_hits = day_first_votes = month_first_votes = 0
    for cell in present:
        is_date, day_first = _match_date(cell)
        if is_date:
            date_hits += 1
            if day_first is True:
                day_first_votes += 1
            elif day_first is False:
                month_first_votes += 1
    number_hits = comma_votes = point_votes = 0
    for cell in present:
        if _NUMBER_POINT.match(cell):
            number_hits += 1
            if "." in cell:
                point_votes += 1
        elif _NUMBER_COMMA.match(cell):
            number_hits += 1
            if "," in cell:
                comma_votes += 1
    skeletons = Counter(skeleton(cell) for cell in present)
    modal_skeleton, skeleton_hits = skeletons.most_common(1)[0]
    n = len(present)
    common = dict(name=name, n_cells=len(cells), n_missing=n_missing,
                  n_distinct=n_distinct)
    if date_hits / n >= 0.6 and date_hits >= number_hits:
        day_first = None
        if day_first_votes or month_first_votes:
            day_first = day_first_votes > month_first_votes
        return ColumnProfile(kind=ColumnKind.DATE, conformance=date_hits / n,
                             pattern="date", day_first=day_first, **common)
    if number_hits / n >= 0.6:
        return ColumnProfile(
            kind=ColumnKind.NUMBER, conformance=number_hits / n,
            pattern="number(decimal comma)" if comma_votes > point_votes
            else "number", decimal_comma=comma_votes > point_votes, **common)
    if skeleton_hits / n >= 0.6 and len(modal_skeleton) <= 24 \
            and modal_skeleton not in ("A", ""):
        return ColumnProfile(kind=ColumnKind.IDENTIFIER,
                             conformance=skeleton_hits / n,
                             pattern=modal_skeleton, **common)
    return ColumnProfile(kind=ColumnKind.TEXT, conformance=skeleton_hits / n,
                         pattern=modal_skeleton, **common)


#: Cells the column strategy draws from: day-first, month-first, ISO and
#: month-name dates, point and comma decimals, identifiers whose
#: skeletons tie, prose, blanks and ``None``.
CELLS = [
    "31/12/2020", "12/31/2020", "05/06/2020", "2021-01-02", "3 Mar 2019",
    "1,234.5", "1.234,5", "1234", "12,5", "-7.25", "+3",
    "AB-12", "XY-9", "12-AB", "9-ZZ", "A1", "hello world", "x",
    "", " ", "  12/01/2020 ", None,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CELLS), max_size=60))
@example(["AB-12", "12-AB", "XY-9", "9-ZZ"])        # a two-way skeleton tie
@example(["12-AB", "AB-12", "9-ZZ", "XY-9"])        # ... first seen wins
@example(["31/12/2020"] * 5 + ["12/31/2020"] * 5)   # tied date-order votes
@example(["1,234.5"] * 3 + ["1.234,5"] * 3 + [None, ""])
@example([None, "", " "])
def test_distinct_value_profile_matches_per_cell_loop(cells):
    assert analyze_column("c", cells) == reference_analyze_column("c", cells)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="aZ09-/.,: ", max_size=8), max_size=40))
def test_arbitrary_short_text(cells):
    assert analyze_column("c", cells) == reference_analyze_column("c", cells)


def reference_skeleton(text):
    """The token loop: digit runs, letter runs, any other character."""
    parts = []
    for token in re.findall(r"[0-9]+|[^\W\d_]+|.", text, re.DOTALL):
        if token[0].isdigit():
            parts.append("9")
        elif token[0].isalpha():
            parts.append("A")
        else:
            parts.append(token)
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=st.characters(max_codepoint=127)),
                 st.text()))
@example("AB-1234_x\n9z")
@example("Zürich ²3 ٣٤ Ⅻab _")
def test_skeleton_matches_token_loop(text):
    """ASCII text takes two regex substitutions, other text the token
    loop; both give the loop's skeleton."""
    assert skeleton(text) == reference_skeleton(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(CELLS), max_size=40),
       st.lists(st.sampled_from(CELLS + ["99/99/9999", "ZZ-1", "?"]),
                max_size=10))
def test_conformance_looks_up_the_analysis(cells, probes):
    """``conforming_mask`` gives each value the verdict matching it
    against the profile would: looked up for analysed values, matched
    for unseen ones."""
    profile = analyze_column("c", cells)
    matched = ColumnProfile(**{**profile.__dict__, "verdicts": {}})
    for values in (cells, probes):
        assert conforming_mask(profile, values) == \
            conforming_mask(matched, values)
