"""Applications: anomaly detection, IoT classification, congestion control,
sketching, and eRSS — the paper's benchmark suite plus Section 3.3.2's
broader MapReduce applications."""

from .anomaly import AnomalyDetector, train_anomaly_dnn
from .congestion import CongestionController, closed_loop_metrics
from .erss import ElasticRSS
from .iot_classify import IoTClassifier, cluster_purity
from .registry import APPLICATIONS, AppRequirement, ReactionTime, meets_requirement
from .sketch import CountMinSketch

__all__ = [
    "AnomalyDetector",
    "train_anomaly_dnn",
    "CongestionController",
    "closed_loop_metrics",
    "ElasticRSS",
    "IoTClassifier",
    "cluster_purity",
    "APPLICATIONS",
    "AppRequirement",
    "ReactionTime",
    "meets_requirement",
    "CountMinSketch",
]
