"""Synthetic IoT traffic-classification datasets.

Two shapes are needed:

* Table 3 quantizes "DNNs for TMC IoT traffic classifiers" with kernels
  4x10x2, 4x5x5x2, 4x10x10x2 — i.e. four input features, two device
  classes, and float32 accuracy around 67%.  :func:`iot_binary_dataset`
  generates a two-class problem whose Bayes accuracy sits near that mark so
  the float-vs-fix8 *difference* (the quantity under test) is measured in a
  realistic regime.
* Table 5's KMeans application uses "11 features and five categories":
  :func:`iot_cluster_dataset` generates five device-class clusters in an
  11-dimensional feature space.

Feature semantics follow Sivanathan et al. (TMC '18): packet sizes, sleep
times, DNS/NTP intervals, active volumes — here drawn from parameterized
per-class distributions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "iot_binary_dataset",
    "iot_cluster_dataset",
    "iot_packet_trace",
    "IOT_BINARY_FEATURES",
    "IOT_CLUSTER_FEATURES",
]

IOT_BINARY_FEATURES = ("mean_pkt_size", "flow_duration", "sleep_time", "dns_interval")

IOT_CLUSTER_FEATURES = (
    "mean_pkt_size",
    "flow_duration",
    "sleep_time",
    "dns_interval",
    "ntp_interval",
    "active_volume",
    "peak_rate",
    "mean_rate",
    "flow_count",
    "tls_ratio",
    "udp_ratio",
)


def iot_binary_dataset(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two overlapping IoT device classes over 4 features.

    The class means sit 0.8 (shared) standard deviations apart, which puts
    Bayes accuracy around the paper's ~67%.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    half = n // 2
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    d = len(IOT_BINARY_FEATURES)
    # Class means differ along a single direction; per-feature noise is
    # anisotropic so the boundary is not axis-aligned.
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    means = np.stack([-0.4 * direction, 0.4 * direction])
    scales = rng.uniform(0.8, 1.6, size=d)
    x = means[labels] + rng.normal(size=(n, d)) * scales
    # Mild non-Gaussian tail on one feature (sleep times are heavy-tailed).
    x[:, 2] += rng.exponential(0.4, size=n)
    order = rng.permutation(n)
    return x[order], labels[order]


def iot_cluster_dataset(
    n: int, n_classes: int = 5, seed: int = 0, spread: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Five IoT device categories over 11 features (KMeans workload)."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n_classes <= 1:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    d = len(IOT_CLUSTER_FEATURES)
    centers = rng.normal(scale=3.0, size=(n_classes, d))
    labels = rng.integers(0, n_classes, size=n)
    x = centers[labels] + rng.normal(scale=spread, size=(n, d))
    return x, labels


def iot_packet_trace(
    n_packets: int,
    n_classes: int = 5,
    seed: int = 0,
    n_flows: int = 48,
    offered_gbps: float = 1.0,
    spread: float = 1.0,
):
    """Cluster-feature packets as a trace for the fabric / serving loop.

    Each packet's feature payload is one 11-dimensional cluster-feature
    vector (the :data:`IOT_CLUSTER_FEATURES` layout
    :meth:`~repro.runtime.FabricApp.from_kmeans` consumes) and its label
    is the generating device category — replaying the trace through an
    IoT app classifies per-packet flows the way the anomaly trace scores
    detections.  Packets spread over ``n_flows`` synthetic five-tuples
    with jittered arrivals, so the flow-consistent sharder has real work.
    """
    from .packets import FlowSpec, PacketRecord, PacketTrace

    if n_packets <= 0:
        raise ValueError("n_packets must be positive")
    if n_flows <= 0:
        raise ValueError("n_flows must be positive")
    features, labels = iot_cluster_dataset(
        n_packets, n_classes=n_classes, seed=seed, spread=spread
    )

    rng = np.random.default_rng(seed + 0x107)
    five_tuples = [
        (
            int(rng.integers(0, 2**32)),
            int(rng.integers(0, 2**32)),
            int(rng.integers(1024, 65535)),
            int(rng.choice([53, 123, 443, 8883])),
            int(rng.choice([0, 1])),
        )
        for __ in range(n_flows)
    ]
    flow_of = rng.integers(0, n_flows, size=n_packets)
    sizes = rng.integers(80, 1200, size=n_packets)
    gaps = rng.exponential(1.0, size=n_packets) * (
        sizes * 8.0 / (offered_gbps * 1e9)
    )
    times = np.cumsum(gaps)

    seq_in_flow = np.zeros(n_flows, dtype=np.int64)
    packets = []
    for i in range(n_packets):
        fid = int(flow_of[i])
        packets.append(
            PacketRecord(
                time=float(times[i]),
                flow_id=fid,
                five_tuple=five_tuples[fid],
                size_bytes=int(sizes[i]),
                features=features[i],
                label=int(labels[i]),
                attack_type=0,
                seq_in_flow=int(seq_in_flow[fid]),
            )
        )
        seq_in_flow[fid] += 1
    flows = [
        FlowSpec(
            flow_id=fid,
            five_tuple=five_tuples[fid],
            n_packets=int(seq_in_flow[fid]),
            mean_size=float(sizes.mean()),
            features=np.zeros(features.shape[1]),
            label=0,
            attack_type=0,
            start_time=0.0,
        )
        for fid in range(n_flows)
    ]
    return PacketTrace(packets=packets, flows=flows, duration=float(times[-1]))
