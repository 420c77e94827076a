"""KMeans clustering for IoT traffic classification.

The paper's first application benchmark "implements KMeans clustering using
11 features and five categories" (Section 5.1.2).  Training is Lloyd's
algorithm with k-means++ seeding; data-plane inference is a
nearest-centroid computation — per centroid a (subtract, square, reduce-add)
MapReduce followed by an arg-min reduce, which is exactly how the frontend
lowers it onto CUs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KMeans"]


class KMeans:
    """Lloyd's k-means with k-means++ initialization and restarts.

    Five independent runs of at most 100 iterations each are performed
    and the one with the lowest inertia kept (Lloyd's algorithm is
    sensitive to initialization); a run stops once no centroid moves by
    1e-6 or more.
    """

    def __init__(self, n_clusters: int, seed: int = 0):
        if n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        self.n_clusters = n_clusters
        self.rng = np.random.default_rng(seed)
        self.centroids: np.ndarray | None = None
        self.n_iter_: int = 0

    def _init_centroids(self, x: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by D^2 sampling."""
        n = len(x)
        first = int(self.rng.integers(n))
        centroids = [x[first]]
        for __ in range(1, self.n_clusters):
            d2 = np.min(
                [np.sum((x - c) ** 2, axis=1) for c in centroids], axis=0
            )
            total = d2.sum()
            if total <= 0:
                centroids.append(x[int(self.rng.integers(n))])
                continue
            probs = d2 / total
            centroids.append(x[int(self.rng.choice(n, p=probs))])
        return np.array(centroids)

    def fit(self, x: np.ndarray) -> "KMeans":
        """Cluster ``x`` of shape (n, d); keeps the best of five runs."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if len(x) < self.n_clusters:
            raise ValueError("fewer samples than clusters")
        best_inertia = np.inf
        best_centroids: np.ndarray | None = None
        best_iters = 0
        for __ in range(5):
            centroids, iters = self._lloyd(x)
            labels = self._nearest(x, centroids)
            inertia = float(np.sum((x - centroids[labels]) ** 2))
            if inertia < best_inertia:
                best_inertia = inertia
                best_centroids = centroids
                best_iters = iters
        self.centroids = best_centroids
        self.n_iter_ = best_iters
        return self

    def _lloyd(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        centroids = self._init_centroids(x)
        iters = 0
        for iteration in range(100):
            labels = self._nearest(x, centroids)
            new_centroids = centroids.copy()
            for k in range(self.n_clusters):
                members = x[labels == k]
                if len(members):
                    new_centroids[k] = members.mean(axis=0)
            shift = float(np.max(np.abs(new_centroids - centroids)))
            centroids = new_centroids
            iters = iteration + 1
            if shift < 1e-6:
                break
        return centroids, iters

    @staticmethod
    def _nearest(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        d2 = (
            np.sum(x * x, axis=1)[:, None]
            - 2.0 * x @ centroids.T
            + np.sum(centroids * centroids, axis=1)[None, :]
        )
        return d2.argmin(axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Assign each sample to its nearest centroid."""
        if self.centroids is None:
            raise RuntimeError("model is not fitted")
        return self._nearest(np.atleast_2d(np.asarray(x, dtype=np.float64)), self.centroids)
