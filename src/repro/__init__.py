"""Taurus: a data plane architecture for per-packet ML (ASPLOS 2022).

A full-system Python reproduction: fixed-point datapath, from-scratch ML
library, MapReduce DSL + compiler, the MapReduce block (a compiled CU/MU cost
model driving a graph interpreter), PISA switch pipeline, baselines
(accelerators, MAT-only ML, rules vs weights), and the end-to-end
anomaly-detection testbed.

Quickstart::

    from repro import AnomalyDetector
    from repro.datasets import generate_connections

    detector = AnomalyDetector.from_dataset(n_connections=4000)
    print(detector.offline_scores(generate_connections(2000, seed=7)))
    print(detector.added_latency_ns, "ns added per ML packet")
"""

from .apps import AnomalyDetector, CongestionController, IoTClassifier
from .fixpoint import FIX8, FixTensor, quantize_model
from .hw import MapReduceBlock, TaurusChip
from .mapreduce import (
    DataflowGraph,
    MapReduceControlBlock,
    dnn_graph,
    kmeans_graph,
    lstm_graph,
    svm_graph,
)
from .pisa import TaurusPipeline
from .runtime import ShardedRuntime

__all__ = [
    "AnomalyDetector",
    "CongestionController",
    "IoTClassifier",
    "FIX8",
    "FixTensor",
    "quantize_model",
    "MapReduceBlock",
    "TaurusChip",
    "DataflowGraph",
    "MapReduceControlBlock",
    "dnn_graph",
    "kmeans_graph",
    "lstm_graph",
    "svm_graph",
    "TaurusPipeline",
    "ShardedRuntime",
]
