"""Additional table-substrate coverage: preview and unicode CSV."""

from repro.table import Table, read_csv, write_csv


class TestPreview:
    def test_empty_table_preview(self):
        text = Table({"a": []}).preview()
        assert "a" in text

    def test_none_rendered(self):
        text = Table({"a": [None]}).preview()
        assert "None" in text

    def test_exact_fit_no_ellipsis(self):
        text = Table({"a": [1, 2]}).preview(2)
        assert "more rows" not in text


class TestUnicodeCsv:
    def test_unicode_round_trip(self, tmp_path):
        table = Table({"city": ["Zürich", "東京", "Genève"]})
        path = tmp_path / "u.csv"
        write_csv(table, path)
        assert read_csv(path) == table

    def test_newlines_in_cells_quoted(self, tmp_path):
        table = Table({"text": ["line1\nline2", "plain"]})
        path = tmp_path / "n.csv"
        write_csv(table, path)
        assert read_csv(path).column("text")[0] == "line1\nline2"
