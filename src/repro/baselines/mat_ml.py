"""MAT-only in-network ML baselines (Section 5.1.4).

Two published schemes map ML onto match-action tables:

* **N2Net** (Siracusano & Bifulco) runs binary neural networks: each layer
  needs ~12 MATs for the XNOR / popcount / sign pipeline, so the 4-layer
  anomaly DNN costs ~48 MATs — against Taurus's iso-area ~3.
* **IIsy** (Xiong & Zilberman) maps classical models: an SVM consumes 8
  MATs (one per pairwise hyperplane vote) and KMeans 2.

We provide both the *cost model* the paper quotes and a *functional* BNN
that actually runs on our MAT pipeline primitives, demonstrating the
approach works but is imprecise (binary weights) and expensive (tables per
layer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.params import SwitchChipParams
from ..hw.area import grid_area_mm2

__all__ = [
    "MatCost",
    "n2net_mat_cost",
    "iisy_mat_cost",
    "taurus_iso_area_mats",
    "BinarizedDNN",
]


@dataclass(frozen=True)
class MatCost:
    """MAT-stage consumption of one in-network ML mapping."""

    scheme: str
    model: str
    n_mats: int

    def area_mm2(self) -> float:
        return self.n_mats * SwitchChipParams().mat_area_mm2


def n2net_mat_cost(n_layers: int) -> MatCost:
    """N2Net: "requires at least 12 MATs per layer"."""
    if n_layers <= 0:
        raise ValueError("n_layers must be positive")
    return MatCost("N2Net", f"BNN-{n_layers}L", n_layers * 12)


def iisy_mat_cost(model: str) -> MatCost:
    """IIsy: published table budgets for non-NN models."""
    budgets = {"svm": 8, "kmeans": 2, "decision_tree": 4, "naive_bayes": 5}
    if model not in budgets:
        raise ValueError(f"IIsy model must be one of {sorted(budgets)}")
    return MatCost("IIsy", model, budgets[model])


def taurus_iso_area_mats() -> float:
    """MAT-equivalents of one MapReduce block ("3 MATs per pipeline")."""
    return grid_area_mm2() / SwitchChipParams().mat_area_mm2


class BinarizedDNN:
    """A functional BNN: binarize a trained float DNN, N2Net-style.

    Weights become {-1, +1}; each layer is XNOR + popcount + sign, which is
    what a MAT pipeline can express with exact-match tables.  Accuracy drops
    versus the float/fix8 model — the imprecision the paper cites.
    """

    def __init__(self, dnn):
        self.signs = [np.sign(layer.weights) + (layer.weights == 0) for layer in dnn.layers]
        self.thresholds = [-layer.bias for layer in dnn.layers]
        self.output = dnn.output
        self.decision_threshold = 0.0

    def calibrate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Pick the output threshold maximizing training F1.

        Binarization destroys the float model's score scale, so the
        decision threshold must be re-fit (N2Net does the same when
        quantizing the output layer).
        """
        scores = self.forward(x).reshape(-1)
        y = np.asarray(y)
        best_f1, best_thr = 0.0, 0.0
        for thr in np.quantile(scores, np.linspace(0.02, 0.98, 49)):
            pred = (scores >= thr).astype(np.int64)
            tp = int(np.sum((pred == 1) & (y == 1)))
            fp = int(np.sum((pred == 1) & (y == 0)))
            fn = int(np.sum((pred == 0) & (y == 1)))
            if tp == 0:
                continue
            f1 = 2 * tp / (2 * tp + fp + fn)
            if f1 > best_f1:
                best_f1, best_thr = f1, float(thr)
        self.decision_threshold = best_thr
        return best_f1

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Binary forward pass: inputs binarized by sign at each layer."""
        out = np.sign(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        out[out == 0] = 1.0
        for i, (signs, thresh) in enumerate(zip(self.signs, self.thresholds)):
            acc = out @ signs.T  # XNOR-popcount == dot of {-1,+1} vectors
            last = i == len(self.signs) - 1
            if last:
                return acc - thresh
            out = np.sign(acc - thresh)
            out[out == 0] = 1.0
        raise AssertionError("unreachable")  # pragma: no cover

    def predict(self, x: np.ndarray, threshold: float | None = None) -> np.ndarray:
        scores = self.forward(x)
        if self.output == "sigmoid":
            thr = self.decision_threshold if threshold is None else threshold
            return (scores.reshape(-1) >= thr).astype(np.int64)
        return scores.argmax(axis=-1)
