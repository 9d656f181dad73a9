import pytest

from isofdp import reports
from isofdp.reports import atomic_write_text, load_labels


class TestAtomicWrite:
    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("before")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(reports.os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(path, "after")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "before"


class TestLoadLabels:
    def test_comment_and_blank_lines_skipped(self):
        text = "# token community\na\t0\n\n  # b is next\nb 1\n"
        assert load_labels(text) == {"a": 0, "b": 1}
