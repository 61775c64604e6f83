"""Error-detection strategies for the Raha-style baseline.

Raha runs a library of unsupervised detection strategies and uses their
binary verdicts as per-cell feature vectors.  We implement the four
strategy families the paper cites (Section 2): outlier detection
(dBoost-style), pattern-violation detection, rule-violation detection and
missing-value detection.  Each strategy returns a boolean matrix of shape
``(n_rows, n_attributes)``: ``True`` marks a suspected error.
"""

from __future__ import annotations


from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.table import Table, discover_functional_dependencies
from repro.table.keys import fd_violating_rows

#: Cell contents commonly used as explicit missing-value markers.
MISSING_MARKERS = frozenset({"", "nan", "NaN", "NAN", "n/a", "N/A", "null",
                             "NULL", "None", "-", "?"})


def _cell_text(value: object) -> str:
    return "" if value is None else str(value)


class DetectionStrategy:
    """Base class: an unsupervised per-cell error detector."""

    #: Identifier used in feature vectors and reports.
    name: str = "strategy"

    def detect(self, dirty: Table) -> np.ndarray:
        """Return a ``(n_rows, n_attributes)`` boolean suspicion matrix."""
        raise NotImplementedError


class MissingValueStrategy(DetectionStrategy):
    """Flags cells whose content is a conventional missing-value marker."""

    name = "missing_value"

    def __init__(self, markers: Sequence[str] = tuple(MISSING_MARKERS)):
        self._markers = frozenset(markers)

    def detect(self, dirty: Table) -> np.ndarray:
        out = np.zeros(dirty.shape, dtype=bool)
        for j, attr in enumerate(dirty.column_names):
            for i, value in enumerate(dirty.column(attr).values):
                out[i, j] = _cell_text(value).strip() in self._markers
        return out


def character_pattern(text: str) -> str:
    """Collapse a value into a character-class pattern.

    Letters -> ``a``, digits -> ``9``, whitespace -> ``_``; other
    characters are kept.  Runs are collapsed (``"12.0 oz"`` ->
    ``"9.9_a"``), so the pattern captures the value's *format*.
    """
    classes = []
    for char in text:
        if char.isalpha():
            classes.append("a")
        elif char.isdigit():
            classes.append("9")
        elif char.isspace():
            classes.append("_")
        else:
            classes.append(char)
    collapsed = []
    for cls in classes:
        if not collapsed or collapsed[-1] != cls:
            collapsed.append(cls)
    return "".join(collapsed)


class PatternProfileStrategy(DetectionStrategy):
    """Flags cells whose character-class pattern is rare in their column.

    This is the pattern-violation detector: a column dominated by
    ``"9.9"`` values makes ``"9.9_a"`` (``'12.0 oz'``) suspicious.

    Parameters
    ----------
    max_pattern_share:
        Patterns covering at most this fraction of a column's cells are
        flagged.
    """

    name = "pattern_profile"

    def __init__(self, max_pattern_share: float = 0.05):
        if not 0.0 < max_pattern_share < 1.0:
            raise ConfigurationError(
                f"max_pattern_share must be in (0, 1), got {max_pattern_share}"
            )
        self.max_pattern_share = max_pattern_share

    def detect(self, dirty: Table) -> np.ndarray:
        out = np.zeros(dirty.shape, dtype=bool)
        for j, attr in enumerate(dirty.column_names):
            values = [_cell_text(v) for v in dirty.column(attr).values]
            patterns = [character_pattern(v) for v in values]
            counts: dict[str, int] = {}
            for pattern in patterns:
                counts[pattern] = counts.get(pattern, 0) + 1
            threshold = self.max_pattern_share * len(values)
            for i, pattern in enumerate(patterns):
                out[i, j] = counts[pattern] <= threshold
        return out


class ValueFrequencyStrategy(DetectionStrategy):
    """Flags rare values in low-cardinality columns (dBoost-style outliers).

    Columns whose distinct-value count is a small fraction of the row
    count behave like categorical domains; a value occurring only once or
    twice there is suspicious (e.g. a typo'd city name).

    Parameters
    ----------
    max_cardinality_ratio:
        A column is treated as categorical when
        ``n_distinct / n_rows`` is at most this ratio.
    max_count:
        Values occurring at most this many times are flagged.
    """

    name = "value_frequency"

    def __init__(self, max_cardinality_ratio: float = 0.3, max_count: int = 1):
        if max_count < 1:
            raise ConfigurationError(f"max_count must be >= 1, got {max_count}")
        self.max_cardinality_ratio = max_cardinality_ratio
        self.max_count = max_count

    def detect(self, dirty: Table) -> np.ndarray:
        out = np.zeros(dirty.shape, dtype=bool)
        if dirty.n_rows == 0:
            return out
        for j, attr in enumerate(dirty.column_names):
            values = [_cell_text(v) for v in dirty.column(attr).values]
            counts: dict[str, int] = {}
            for value in values:
                counts[value] = counts.get(value, 0) + 1
            if len(counts) / dirty.n_rows > self.max_cardinality_ratio:
                continue  # high-cardinality column: frequency is no signal
            for i, value in enumerate(values):
                out[i, j] = counts[value] <= self.max_count
        return out


class LengthOutlierStrategy(DetectionStrategy):
    """Flags cells whose length deviates strongly from the column mean.

    A robust z-score on value length catches truncated values, missing
    words and concatenated formatting garbage.

    Parameters
    ----------
    z_threshold:
        Cells whose length is more than this many standard deviations
        from the column mean are flagged.
    """

    name = "length_outlier"

    def __init__(self, z_threshold: float = 3.0):
        if z_threshold <= 0:
            raise ConfigurationError(f"z_threshold must be positive, got {z_threshold}")
        self.z_threshold = z_threshold

    def detect(self, dirty: Table) -> np.ndarray:
        out = np.zeros(dirty.shape, dtype=bool)
        for j, attr in enumerate(dirty.column_names):
            lengths = np.array([
                len(_cell_text(v)) for v in dirty.column(attr).values
            ], dtype=np.float64)
            if lengths.size == 0:
                continue
            std = lengths.std()
            if std < 1e-9:
                continue
            z = np.abs(lengths - lengths.mean()) / std
            out[:, j] = z > self.z_threshold
        return out


class FDViolationStrategy(DetectionStrategy):
    """Flags rows violating mined functional dependencies (rule violations).

    Mines approximate FDs on the dirty table (tolerating the errors it is
    trying to find) and flags the deviating cells of each violating row --
    both the determinant and dependent attribute are marked, since either
    side may hold the wrong value.

    Parameters
    ----------
    max_violation_rate:
        FD mining tolerance; see
        :func:`repro.table.keys.discover_functional_dependencies`.
    """

    name = "fd_violation"

    def __init__(self, max_violation_rate: float = 0.3, min_support: float = 0.05):
        self.max_violation_rate = max_violation_rate
        self.min_support = min_support

    def detect(self, dirty: Table) -> np.ndarray:
        out = np.zeros(dirty.shape, dtype=bool)
        attr_pos = {attr: j for j, attr in enumerate(dirty.column_names)}
        dependencies = discover_functional_dependencies(
            dirty, max_lhs_size=1,
            max_violation_rate=self.max_violation_rate,
            min_support=self.min_support,
        )
        for fd in dependencies:
            for row in fd_violating_rows(dirty, fd):
                out[row, attr_pos[fd.rhs]] = True
                for lhs_attr in fd.lhs:
                    out[row, attr_pos[lhs_attr]] = True
        return out


class NumericOutlierStrategy(DetectionStrategy):
    """dBoost-style Gaussian outliers on numeric-parsable columns.

    Columns where most cells parse as numbers are modelled as a
    Gaussian; cells whose parsed value deviates beyond ``z_threshold``
    standard deviations are flagged, and -- importantly for formatting
    errors -- cells that *fail to parse* in a predominantly numeric
    column are flagged too (``'12.0 oz'`` in an ounces column).

    Parameters
    ----------
    z_threshold:
        Deviation threshold for parsed values.
    min_numeric_share:
        A column is treated as numeric when at least this fraction of
        its non-empty cells parse as floats.
    """

    name = "numeric_outlier"

    def __init__(self, z_threshold: float = 3.0,
                 min_numeric_share: float = 0.8):
        if z_threshold <= 0:
            raise ConfigurationError(f"z_threshold must be positive, got {z_threshold}")
        if not 0.0 < min_numeric_share <= 1.0:
            raise ConfigurationError(
                f"min_numeric_share must be in (0, 1], got {min_numeric_share}"
            )
        self.z_threshold = z_threshold
        self.min_numeric_share = min_numeric_share

    @staticmethod
    def _parse(text: str) -> float | None:
        try:
            return float(text.replace(",", ""))
        except ValueError:
            return None

    def detect(self, dirty: Table) -> np.ndarray:
        out = np.zeros(dirty.shape, dtype=bool)
        for j, attr in enumerate(dirty.column_names):
            texts = [_cell_text(v) for v in dirty.column(attr).values]
            non_empty = [(i, t) for i, t in enumerate(texts) if t.strip()]
            if not non_empty:
                continue
            parsed = [(i, self._parse(t)) for i, t in non_empty]
            numbers = [(i, v) for i, v in parsed if v is not None]
            if len(numbers) / len(non_empty) < self.min_numeric_share:
                continue  # not a numeric column
            values = np.array([v for _, v in numbers])
            mean = values.mean()
            std = values.std()
            for i, v in parsed:
                if v is None:
                    out[i, j] = True  # unparsable cell in a numeric column
                elif std > 1e-12 and abs(v - mean) / std > self.z_threshold:
                    out[i, j] = True
        return out


def default_strategies() -> list[DetectionStrategy]:
    """The strategy ensemble used by the Raha-style baseline."""
    return [
        MissingValueStrategy(),
        PatternProfileStrategy(max_pattern_share=0.05),
        PatternProfileStrategy(max_pattern_share=0.15),
        ValueFrequencyStrategy(max_count=1),
        ValueFrequencyStrategy(max_count=2),
        LengthOutlierStrategy(z_threshold=3.0),
        NumericOutlierStrategy(),
        FDViolationStrategy(),
    ]


def run_strategies(dirty: Table,
                   strategies: Sequence[DetectionStrategy]) -> np.ndarray:
    """Stack strategy verdicts into ``(n_rows, n_attributes, n_strategies)``."""
    if not strategies:
        raise ConfigurationError("at least one strategy is required")
    layers = []
    for strategy in strategies:
        verdicts = strategy.detect(dirty)
        if verdicts.shape != dirty.shape:
            raise ConfigurationError(
                f"strategy {strategy.name!r} returned shape {verdicts.shape}, "
                f"expected {dirty.shape}"
            )
        layers.append(verdicts)
    return np.stack(layers, axis=-1)
