"""Tests for evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import accuracy, detection_rate, f1_score
from repro.ml.metrics import precision_recall

labels = st.lists(st.integers(0, 1), min_size=1, max_size=200)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 1])) == 1.0

    def test_none_correct(self):
        assert accuracy(np.array([0, 0]), np.array([1, 1])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 0]))

    def test_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0


class TestF1:
    def test_known_value(self):
        # TP=1, FP=1, FN=1 -> precision=recall=0.5 -> F1=0.5
        y = np.array([1, 0, 1])
        p = np.array([1, 1, 0])
        assert f1_score(y, p) == pytest.approx(0.5)

    def test_no_positives_predicted(self):
        assert f1_score(np.array([1, 1]), np.array([0, 0])) == 0.0

    def test_precision_recall_pair(self):
        y = np.array([1, 1, 0, 0])
        p = np.array([1, 0, 1, 0])
        precision, recall = precision_recall(y, p)
        assert precision == 0.5
        assert recall == 0.5

    def test_detection_rate_is_recall(self):
        y = np.array([1, 1, 1, 0])
        p = np.array([1, 0, 0, 0])
        assert detection_rate(y, p) == pytest.approx(1 / 3)

    @given(labels)
    def test_f1_bounded(self, ys):
        ys = np.array(ys)
        rng = np.random.default_rng(0)
        ps = rng.integers(0, 2, size=len(ys))
        assert 0.0 <= f1_score(ys, ps) <= 1.0

    @given(labels)
    def test_perfect_prediction_maximal(self, ys):
        ys = np.array(ys)
        score = f1_score(ys, ys)
        if ys.sum() > 0:
            assert score == 1.0
        else:
            assert score == 0.0

    @given(labels)
    def test_f1_le_max_of_precision_recall(self, ys):
        ys = np.array(ys)
        ps = np.roll(ys, 1)
        precision, recall = precision_recall(ys, ps)
        assert f1_score(ys, ps) <= max(precision, recall) + 1e-12
