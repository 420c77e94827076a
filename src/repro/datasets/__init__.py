"""Synthetic dataset substrates (NSL-KDD-like, IoT, congestion traces)."""

from .congestion import (
    ACTIONS,
    CongestionTraceConfig,
    congestion_packet_trace,
    generate_congestion_traces,
)
from .iot import (
    IOT_CLUSTER_FEATURES,
    iot_binary_dataset,
    iot_cluster_dataset,
    iot_packet_trace,
)
from .nslkdd import (
    DNN_FEATURES,
    ConnectionDataset,
    dnn_feature_matrix,
    generate_connections,
    svm_feature_matrix,
)
from .packets import (
    FlowSpec,
    PacketRecord,
    PacketTrace,
    TraceColumns,
    expand_to_packets,
)

__all__ = [
    "ACTIONS",
    "CongestionTraceConfig",
    "congestion_packet_trace",
    "generate_congestion_traces",
    "IOT_CLUSTER_FEATURES",
    "iot_binary_dataset",
    "iot_cluster_dataset",
    "iot_packet_trace",
    "DNN_FEATURES",
    "ConnectionDataset",
    "dnn_feature_matrix",
    "generate_connections",
    "svm_feature_matrix",
    "FlowSpec",
    "PacketRecord",
    "PacketTrace",
    "TraceColumns",
    "expand_to_packets",
]
