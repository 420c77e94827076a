"""Traffic generation for the testbed (the MoonGen role).

Builds the labeled 5 Gbps packet workload of Section 5.2.2: NSL-KDD-style
connections are split into a training set (for the control plane / offline
model) and a live set, and the live set is expanded into an interleaved
packet trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import (
    ConnectionDataset,
    PacketTrace,
    dnn_feature_matrix,
    expand_to_packets,
    generate_connections,
)

__all__ = ["Workload", "build_workload"]


@dataclass
class Workload:
    """Everything one end-to-end run needs."""

    train: ConnectionDataset
    trace: PacketTrace

    @property
    def n_packets(self) -> int:
        return len(self.trace)

    @property
    def packet_rate_pps(self) -> float:
        if self.trace.duration <= 0:
            return 0.0
        return len(self.trace) / self.trace.duration

    @property
    def anomalous_packets(self) -> int:
        return sum(p.label for p in self.trace.packets)


def build_workload(
    n_connections: int = 6000, max_packets: int | None = 150_000, seed: int = 0
) -> Workload:
    """Generate connections, split them in half, and expand the live half
    into packets.

    The trace is stretched 35x over seconds so that millisecond-scale
    control-plane dynamics are observable (each materialized packet
    represents 35 real packets of the 5 Gbps stream; see
    :class:`~repro.datasets.packets.PacketTrace`).
    """
    rng = np.random.default_rng(seed)
    dataset = generate_connections(n_connections, seed=seed)
    train, live = dataset.split(0.5, rng)
    trace = expand_to_packets(
        live,
        feature_matrix=dnn_feature_matrix(live),
        seed=seed + 1,
        max_packets=max_packets,
        time_dilation=35.0,
    )
    return Workload(train=train, trace=trace)
