"""Tests for the numeric-outlier strategy."""

import numpy as np
import pytest

from repro.baselines import NumericOutlierStrategy
from repro.errors import ConfigurationError
from repro.table import Table


class TestNumericOutlierStrategy:
    def test_extreme_value_flagged(self):
        table = Table({"salary": ["90000", "85000", "99000", "92000", "850"]})
        verdicts = NumericOutlierStrategy(z_threshold=1.5).detect(table)
        assert verdicts[4, 0]
        assert not verdicts[0, 0]

    def test_unparsable_cell_in_numeric_column_flagged(self):
        values = ["12.0"] * 20 + ["12.0 oz"]
        table = Table({"ounces": values})
        verdicts = NumericOutlierStrategy().detect(table)
        assert verdicts[-1, 0]

    def test_text_column_skipped(self):
        table = Table({"city": ["Rome", "Paris", "Berlin", "Vienna"]})
        assert not NumericOutlierStrategy().detect(table).any()

    def test_thousands_separator_parses(self):
        values = [str(900 + i * 20) for i in range(10)] + ["1,050"]
        table = Table({"count": values})
        verdicts = NumericOutlierStrategy().detect(table)
        assert not verdicts[-1, 0]  # parses fine and is in range

    def test_constant_column_no_flags(self):
        table = Table({"x": ["5"] * 10})
        assert not NumericOutlierStrategy().detect(table).any()

    def test_empty_cells_ignored(self):
        table = Table({"x": ["1", "", "2", "3"]})
        verdicts = NumericOutlierStrategy().detect(table)
        assert not verdicts[1, 0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NumericOutlierStrategy(z_threshold=0)
        with pytest.raises(ConfigurationError):
            NumericOutlierStrategy(min_numeric_share=0.0)
