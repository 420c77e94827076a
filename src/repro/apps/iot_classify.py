"""IoT traffic classification (KMeans, 11 features, 5 categories).

The first Table 5 application: cluster IoT device traffic and classify each
packet's flow by nearest centroid at line rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import iot_cluster_dataset
from ..hw.grid import MapReduceBlock
from ..mapreduce import kmeans_graph
from ..ml import KMeans

__all__ = ["IoTClassifier", "cluster_purity"]


def cluster_purity(assignments: np.ndarray, labels: np.ndarray) -> float:
    """Mean per-cluster majority fraction (the usual clustering score)."""
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    if assignments.shape != labels.shape:
        raise ValueError("shape mismatch")
    total = 0
    for cluster in np.unique(assignments):
        members = labels[assignments == cluster]
        counts = np.bincount(members)
        total += counts.max()
    return total / len(labels)


@dataclass
class IoTClassifier:
    """KMeans device-category classifier deployed on the fabric."""

    kmeans: KMeans
    block: MapReduceBlock

    @classmethod
    def train(
        cls, n_samples: int = 4000, seed: int = 0
    ) -> tuple["IoTClassifier", np.ndarray, np.ndarray]:
        """Fit on synthetic IoT traffic; returns (app, features, labels)."""
        features, labels = iot_cluster_dataset(n_samples, seed=seed)
        model = KMeans(n_clusters=5, seed=seed).fit(features)
        block = MapReduceBlock(kmeans_graph(model, name="iot_kmeans"))
        return cls(kmeans=model, block=block), features, labels

    def classify_batch(self, features: np.ndarray) -> np.ndarray:
        # Results only: run_batch would advance the block's issue clock.
        values = self.block.graph.execute_batch(np.atleast_2d(features))
        return values.reshape(-1).astype(np.int64)

    @property
    def latency_ns(self) -> float:
        return self.block.latency_ns
