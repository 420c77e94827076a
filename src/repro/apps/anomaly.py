"""Anomaly detection — the paper's running example (Sections 3, 5.2).

Bundles the full application: train the Tang-et-al. DNN on NSL-KDD-style
connections, quantize it, lower it to the fabric, and attach it to a
Taurus pipeline whose postprocessing MAT drops or flags anomalous packets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import (
    ConnectionDataset,
    dnn_feature_matrix,
    generate_connections,
)
from ..fixpoint import QuantizedModel, quantize_model
from ..hw.grid import MapReduceBlock
from ..mapreduce import dnn_graph
from ..ml import anomaly_detection_dnn, f1_score, detection_rate
from ..ml.dnn import DNN
from ..pisa import TaurusPipeline, threshold_postprocess
from ..datasets.nslkdd import DNN_FEATURES

__all__ = ["AnomalyDetector", "train_anomaly_dnn"]


def train_anomaly_dnn(dataset: ConnectionDataset, epochs: int = 25, seed: int = 0) -> DNN:
    """Train the 6-feature, 12/6/3-hidden anomaly DNN."""
    model = anomaly_detection_dnn(seed=seed)
    model.fit(dnn_feature_matrix(dataset), dataset.labels, epochs=epochs, batch_size=64, lr=0.05)
    return model


@dataclass
class AnomalyDetector:
    """The deployed application: model + fabric + pipeline.

    Build with :meth:`from_dataset` for the end-to-end flow, or assemble
    the pieces manually for custom experiments.
    """

    dnn: DNN
    quantized: QuantizedModel
    block: MapReduceBlock
    pipeline: TaurusPipeline
    threshold: float = 0.5

    @classmethod
    def from_dataset(
        cls, n_connections: int = 8000, epochs: int = 25, seed: int = 0
    ) -> "AnomalyDetector":
        """Train, quantize, lower, and deploy in one step."""
        dataset = generate_connections(n_connections, seed=seed)
        dnn = train_anomaly_dnn(dataset, epochs=epochs, seed=seed)
        features = dnn_feature_matrix(dataset)
        quantized = quantize_model(dnn, features[: min(512, len(features))])
        block = MapReduceBlock(dnn_graph(quantized, name="anomaly_dnn"))
        # Matched scalar + vectorized hooks keep batched trace runs on the
        # fast path without risking decision drift between the two.
        scalar_post, batch_post = threshold_postprocess(cls.threshold)
        pipeline = TaurusPipeline(
            block=block,
            feature_names=DNN_FEATURES,
            postprocess=scalar_post,
            postprocess_batch=batch_post,
        )
        return cls(dnn=dnn, quantized=quantized, block=block, pipeline=pipeline)

    # ------------------------------------------------------------------
    # Offline scoring
    # ------------------------------------------------------------------
    def offline_scores(self, dataset: ConnectionDataset) -> dict[str, float]:
        """Model-in-isolation F1 and detection rate (float and fix8)."""
        features = dnn_feature_matrix(dataset)
        float_pred = self.dnn.predict(features, threshold=self.threshold)
        quant_pred = (
            self.quantized(features).reshape(-1) >= self.threshold
        ).astype(np.int64)
        return {
            "f1_float": f1_score(dataset.labels, float_pred),
            "f1_fix8": f1_score(dataset.labels, quant_pred),
            "detection_float": detection_rate(dataset.labels, float_pred),
            "detection_fix8": detection_rate(dataset.labels, quant_pred),
        }

    @property
    def added_latency_ns(self) -> float:
        return self.block.latency_ns
