"""Kernel SVM for anomaly detection.

The paper's first anomaly-detection model is "an SVM with eight input
features selected from the KDD dataset and a radial-basis function to model
nonlinear relationships" (Section 5.1.2).  We implement a kernelized SVM
trained with the Pegasos stochastic sub-gradient algorithm
(Shalev-Shwartz et al.), with an optional support-vector budget: hardware
inference needs a fixed, small SV set resident in MUs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RBFKernelSVM"]


def _rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||a_i - b_j||^2)."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


class RBFKernelSVM:
    """Binary RBF-kernel SVM with budgeted support vectors.

    Labels are {0, 1} externally and mapped to {-1, +1} internally.  The
    decision function is ``f(x) = sum_i alpha_i K(sv_i, x) + b``; predictions
    are ``f(x) >= 0``.
    """

    #: RBF kernel width and the Pegasos regularization constant.
    gamma = 0.5
    reg = 1e-4

    def __init__(self, epochs: int = 5, budget: int = 64, seed: int = 0):
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.epochs = epochs
        self.budget = budget
        self.rng = np.random.default_rng(seed)
        self.support_vectors: np.ndarray | None = None
        self.alphas: np.ndarray | None = None
        self.bias: float = 0.0

    # ------------------------------------------------------------------
    # Training (kernel Pegasos with budget maintenance)
    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "RBFKernelSVM":
        """Train on features ``x`` (n, d) and labels ``y`` in {0, 1}."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        signs = np.where(np.asarray(y) > 0, 1.0, -1.0)
        n = len(x)
        if n == 0:
            raise ValueError("empty training set")
        sv_x = np.empty((0, x.shape[1]))
        sv_a = np.empty(0)
        t = 0
        for __ in range(self.epochs):
            for i in self.rng.permutation(n):
                t += 1
                eta = 1.0 / (self.reg * t)
                # Decay existing coefficients (the (1 - eta*reg) step).
                sv_a *= max(0.0, 1.0 - eta * self.reg)
                margin = 0.0
                if len(sv_x):
                    k = _rbf_kernel(x[i : i + 1], sv_x, self.gamma)[0]
                    margin = float(k @ sv_a)
                if signs[i] * margin < 1.0:
                    sv_x = np.vstack([sv_x, x[i : i + 1]])
                    sv_a = np.append(sv_a, eta * signs[i])
                    if len(sv_x) > self.budget:
                        drop = int(np.argmin(np.abs(sv_a)))
                        sv_x = np.delete(sv_x, drop, axis=0)
                        sv_a = np.delete(sv_a, drop)
        self.support_vectors = sv_x
        self.alphas = sv_a
        self._fit_bias(x, signs)
        return self

    def _fit_bias(self, x: np.ndarray, signs: np.ndarray) -> None:
        """Pick the intercept that maximizes training accuracy."""
        scores = self._raw_scores(x)
        order = np.argsort(scores)
        sorted_scores = scores[order]
        sorted_signs = signs[order]
        # Candidate thresholds between consecutive scores.
        best_acc, best_b = -1.0, 0.0
        neg_below = 0
        pos_total = int(np.sum(sorted_signs > 0))
        neg_total = len(signs) - pos_total
        pos_above = pos_total
        for i in range(len(signs) + 1):
            acc = (neg_below + pos_above) / len(signs)
            if acc > best_acc:
                best_acc = acc
                if i == 0:
                    thr = sorted_scores[0] - 1.0
                elif i == len(signs):
                    thr = sorted_scores[-1] + 1.0
                else:
                    thr = 0.5 * (sorted_scores[i - 1] + sorted_scores[i])
                best_b = -thr
            if i < len(signs):
                if sorted_signs[i] > 0:
                    pos_above -= 1
                else:
                    neg_below += 1
        self.bias = float(best_b)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _raw_scores(self, x: np.ndarray) -> np.ndarray:
        if self.support_vectors is None or self.alphas is None:
            raise RuntimeError("model is not fitted")
        if len(self.support_vectors) == 0:
            return np.zeros(len(np.atleast_2d(x)))
        k = _rbf_kernel(np.atleast_2d(x), self.support_vectors, self.gamma)
        return k @ self.alphas

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Signed distance-like score; >= 0 means the positive class."""
        return self._raw_scores(x) + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard {0, 1} labels."""
        return (self.decision_function(x) >= 0.0).astype(np.int64)

