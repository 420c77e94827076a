"""Tests for the report-rendering helpers and the grid configuration."""

import os

import pytest

from repro.core import render_table, series_to_text, write_result
from repro.hw import grid_composition


class TestRenderTable:
    def test_alignment(self):
        out = render_table("T", ["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_float_formatting(self):
        out = render_table("T", ["x"], [[0.123456], [12345.6], [0.0001]])
        assert "0.123" in out
        assert "1.23e+04" in out or "12345" in out.replace(",", "")

    def test_empty_rows(self):
        out = render_table("T", ["a"], [])
        assert "a" in out


class TestWriteResult:
    def test_writes_file(self, tmp_path):
        path = write_result("unit_test_table", "hello", results_dir=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as fh:
            assert fh.read() == "hello\n"

    def test_series_to_text(self):
        out = series_to_text("fig", {"a": [(1.0, 2.0), (3.0, 4.0)]})
        assert "# series: a" in out
        assert "1\t2" in out


class TestConfig:
    def test_custom_grid(self):
        n_cus, n_mus = grid_composition(rows=8, cols=8)
        assert n_cus + n_mus == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_composition(rows=0)
