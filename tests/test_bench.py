"""Unit tests for recall@K and the benchmark suite's table formatting."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data.ground_truth import recall_at_k

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
from _common import format_series, format_table  # noqa: E402


class TestRecallAtK:
    def test_perfect(self):
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        assert recall_at_k(ids, ids) == 1.0

    def test_order_irrelevant(self):
        found = np.array([[3, 2, 1]])
        truth = np.array([[1, 2, 3]])
        assert recall_at_k(found, truth) == 1.0

    def test_partial(self):
        found = np.array([[1, 2, 99]])
        truth = np.array([[1, 2, 3]])
        assert recall_at_k(found, truth) == pytest.approx(2 / 3)

    def test_padding_ignored(self):
        found = np.array([[1, -1, -1]])
        truth = np.array([[1, 2, 3]])
        assert recall_at_k(found, truth) == pytest.approx(1 / 3)

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError):
            recall_at_k(np.ones((2, 3)), np.ones((3, 3)))


class TestReporting:
    def test_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 20]]
        )
        lines = out.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "long-name" in lines[3]

    def test_table_with_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.startswith("My Table")

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_series(self):
        out = format_series("qps", [1, 2], [10.0, 20.0])
        assert out == "qps: (1, 10.00) (2, 20.00)"

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1], [1, 2])

    def test_float_formatting(self):
        out = format_table(["v"], [[0.00001], [12345.6], [0.5]])
        assert "1e-05" in out
        assert "0.50" in out

