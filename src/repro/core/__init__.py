"""Reporting helpers: the paper-style tables the benchmarks write."""

from .report import render_table, series_to_text, write_result

__all__ = [
    "render_table",
    "series_to_text",
    "write_result",
]
