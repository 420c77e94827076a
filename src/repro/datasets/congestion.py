"""Congestion-control traces for the Indigo LSTM benchmark.

Indigo (Yan et al., ATC '18) learns congestion control by imitating an
oracle on emulated network paths.  We reproduce that setup in miniature: a
single-bottleneck fluid simulation produces observation sequences
(queueing delay, delivery rate, send rate, cwnd, loss indicator) and an
AIMD-style oracle labels each window with the congestion-window action the
LSTM should imitate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CongestionTraceConfig",
    "generate_congestion_traces",
    "congestion_packet_trace",
    "ACTIONS",
    "oracle_action",
]

#: Discrete cwnd actions (multiplicative factors), mirroring Indigo's
#: action set {-1/2x, -1 pkt, hold, +1 pkt, +1/2x} collapsed to factors.
ACTIONS = (0.5, 0.9, 1.0, 1.1, 2.0)


@dataclass(frozen=True)
class CongestionTraceConfig:
    """Parameters of the synthetic bottleneck."""

    bottleneck_gbps: float = 1.0
    base_rtt_ms: float = 0.5
    buffer_pkts: int = 256
    window_steps: int = 8       # observation window length fed to the LSTM
    step_ms: float = 0.1        # observation interval


def oracle_action(queue_frac: float, loss: float, utilization: float) -> int:
    """Expert policy: drain deep queues, grow into unused capacity."""
    if loss > 0.0 or queue_frac > 0.85:
        return 0  # halve
    if queue_frac > 0.5:
        return 1  # gentle decrease
    if utilization < 0.4 and queue_frac < 0.1:
        return 4  # double
    if utilization < 0.85 and queue_frac < 0.3:
        return 3  # gentle increase
    return 2      # hold


def generate_congestion_traces(
    n_sequences: int,
    config: CongestionTraceConfig | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate flows through the bottleneck and label windows.

    Returns (sequences, actions): sequences is
    (n, window_steps, 5) with columns (queueing delay, delivery rate,
    send rate, cwnd, loss), each normalized; actions is (n,) integer
    indices into :data:`ACTIONS`.
    """
    if n_sequences <= 0:
        raise ValueError("n_sequences must be positive")
    cfg = config or CongestionTraceConfig()
    rng = np.random.default_rng(seed)

    capacity_pps = cfg.bottleneck_gbps * 1e9 / 8.0 / 1500.0
    step_s = cfg.step_ms / 1e3

    sequences = np.zeros((n_sequences, cfg.window_steps, 5))
    actions = np.zeros(n_sequences, dtype=np.int64)

    for i in range(n_sequences):
        # Randomize competing load and starting state per sequence.
        cross_load = rng.uniform(0.0, 0.9)
        cwnd = rng.uniform(4.0, 128.0)
        queue = rng.uniform(0.0, cfg.buffer_pkts * 0.7)
        rtt_s = cfg.base_rtt_ms / 1e3
        for t in range(cfg.window_steps):
            send_pps = cwnd / max(rtt_s, 1e-6)
            avail = capacity_pps * (1.0 - cross_load)
            arriving = send_pps * step_s
            serviced = avail * step_s
            queue = queue + arriving - serviced
            loss = 0.0
            if queue > cfg.buffer_pkts:
                loss = (queue - cfg.buffer_pkts) / max(arriving, 1e-9)
                queue = float(cfg.buffer_pkts)
            queue = max(queue, 0.0)
            q_delay_s = queue / max(avail, 1e-9)
            rtt_s = cfg.base_rtt_ms / 1e3 + q_delay_s
            delivery = min(send_pps, avail)
            sequences[i, t] = (
                q_delay_s * 1e3,                # queueing delay, ms
                delivery / capacity_pps,        # normalized delivery rate
                send_pps / capacity_pps,        # normalized send rate
                cwnd / 256.0,                   # normalized cwnd
                min(loss, 1.0),
            )
            # The sender itself follows a noisy AIMD during data collection.
            if loss > 0:
                cwnd = max(2.0, cwnd * 0.5)
            else:
                cwnd += rng.uniform(0.0, 2.0)
        queue_frac = queue / cfg.buffer_pkts
        utilization = float(sequences[i, -1, 1])
        actions[i] = oracle_action(queue_frac, float(sequences[i, -1, 4]), utilization)
    return sequences, actions


def congestion_packet_trace(
    n_packets: int,
    config: CongestionTraceConfig | None = None,
    seed: int = 0,
):
    """Observation windows as a packet trace for the multi-app fabric.

    Each packet's feature payload is one flattened ``(window_steps, 5)``
    observation window (time-major, the layout
    :func:`~repro.mapreduce.frontend.lstm_graph` consumes) and its label
    is the oracle's action index — so replaying the trace through a
    congestion app scores per-packet cwnd decisions the way the anomaly
    trace scores detections.  Packets spread over 64 synthetic five-tuples
    with jittered arrivals at 1 Gbps, giving the flow-consistent sharder
    real work.
    """
    from .packets import FlowSpec, PacketRecord, PacketTrace

    if n_packets <= 0:
        raise ValueError("n_packets must be positive")
    cfg = config or CongestionTraceConfig()
    sequences, actions = generate_congestion_traces(n_packets, cfg, seed=seed)
    features = sequences.reshape(n_packets, -1)

    n_flows = 64
    rng = np.random.default_rng(seed + 0x5EED)
    five_tuples = [
        (
            int(rng.integers(0, 2**32)),
            int(rng.integers(0, 2**32)),
            int(rng.integers(1024, 65535)),
            int(rng.choice([80, 443, 4242, 9000])),
            int(rng.choice([0, 1])),
        )
        for __ in range(n_flows)
    ]
    flow_of = rng.integers(0, n_flows, size=n_packets)
    sizes = rng.integers(200, 1500, size=n_packets)
    # Arrivals: each packet's exponential gap is scaled by its own wire
    # size, so the stream's realized rate is 1 Gbps in expectation.
    gaps = rng.exponential(1.0, size=n_packets) * (sizes * 8.0 / 1e9)
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
                label=int(actions[i]),
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
            mean_size=850.0,
            features=np.zeros(features.shape[1]),
            label=0,
            attack_type=0,
            start_time=0.0,
        )
        for fid in range(n_flows)
    ]
    return PacketTrace(packets=packets, flows=flows, duration=float(times[-1]))
