"""Evaluation metrics used throughout the paper's evaluation.

The end-to-end study (Table 8, Figs. 13-14) scores anomaly detection with an
F1 score "which takes into account the number of identified anomalies, missed
anomalies, and benign packets incorrectly marked as anomalous"; Table 3 uses
plain accuracy.  All metrics are implemented from scratch on numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "precision_recall",
    "f1_score",
    "detection_rate",
]


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly-matching labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))


def precision_recall(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[float, float]:
    """Binary precision and recall for the positive class (label 1)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true != 1)))
    fn = int(np.sum((y_pred != 1) & (y_true == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Binary F1 (harmonic mean of precision and recall), in [0, 1]."""
    precision, recall = precision_recall(y_true, y_pred)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def detection_rate(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of true positives that were flagged (recall, as a percent
    this is the paper's "Detected (%)" column)."""
    _, recall = precision_recall(y_true, y_pred)
    return recall
