"""Unit tests for precision/recall/quality metrics."""

import math

import pytest

from repro.core.quality import QualityReport, precision_recall, quality


class TestPrecisionRecall:
    def test_perfect(self):
        assert precision_recall({"a", "b"}, {"a", "b"}) == (1.0, 1.0)

    def test_half_precision(self):
        precision, recall = precision_recall({"a", "x"}, {"a", "b"})
        assert precision == 0.5
        assert recall == 0.5

    def test_empty_returned_has_full_precision(self):
        """TAX's empty answers count as precision 1 (nothing wrong)."""
        assert precision_recall(set(), {"a"}) == (1.0, 0.0)

    def test_empty_ground_truth_has_full_recall(self):
        assert precision_recall({"a"}, set()) == (0.0, 1.0)

    def test_accepts_lists(self):
        precision, recall = precision_recall(["a", "a", "b"], ["a"])
        assert precision == 0.5  # duplicates collapse
        assert recall == 1.0


class TestQuality:
    def test_definition(self):
        assert quality(0.9, 0.4) == pytest.approx(math.sqrt(0.36))

    def test_zero_recall_zero_quality(self):
        assert quality(1.0, 0.0) == 0.0


class TestQualityReport:
    def test_evaluate(self):
        report = QualityReport.evaluate({"a", "b", "x"}, {"a", "b", "c"})
        assert report.hits == 2
        assert report.returned == 3
        assert report.correct == 3
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.quality == pytest.approx(2 / 3)

    def test_str_renders_metrics(self):
        text = str(QualityReport.evaluate({"a"}, {"a"}))
        assert "P=1.000" in text and "R=1.000" in text
