"""The control-plane ML baseline (Table 8's left columns).

Models the paper's software pipeline: the switch samples telemetry packets
over a 10 GbE link into an XDP-enabled NIC; batches flow through InfluxDB
into a Keras model on a Xeon; ONOS installs flagged IPs as flow rules.

The server runs a batch loop: each iteration picks up every telemetry
packet that arrived since the last pickup (so batch size grows with load
and with its own processing time), then pays

    XDP pickup + DB write/read + ML inference + rule installation

with per-stage costs calibrated to the paper's batch-1 row (3 / 14 / 16 /
2 ms).  A packet of an anomalous flow counts as *detected* only if it
arrives after its flow's rule was installed — the gap Taurus closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.accelerators import AcceleratorModel, CPU_XEON
from ..datasets import PacketTrace
from ..ml.metrics import detection_rate, f1_score

__all__ = ["StageLatencies", "BaselineResult", "ControlPlaneBaseline"]


@dataclass(frozen=True)
class StageLatencies:
    """Per-stage cost model (ms).

    The DB stage is superlinear for small batches (per-point inserts) and
    amortizes past ``db_knee`` points (bulk writes) — the behaviour behind
    the paper's 92 ms DB latency at batch 17 versus 141 ms at batch 2935.
    That knee is what destabilizes the 1e-3 sampling row: per-sample
    service time exceeds the inter-arrival time, so the backlog grows
    without bound.
    """

    xdp_base_ms: float = 3.0
    xdp_per_pkt_ms: float = 0.068
    db_base_ms: float = 14.0
    db_per_pkt_ms: float = 4.5
    db_knee: int = 60
    db_bulk_ms: float = 0.04
    ml_base_ms: float = 15.0
    install_per_rule_ms: float = 2.0
    install_growth_ms_per_krule: float = 2.0

    def db_ms(self, batch: int) -> float:
        small = min(batch, self.db_knee)
        bulk = max(0, batch - self.db_knee)
        return self.db_base_ms + self.db_per_pkt_ms * small + self.db_bulk_ms * bulk


@dataclass
class BaselineResult:
    """One sampling-rate row of Table 8."""

    sampling_rate: float
    mean_batch: float
    mean_backlog: float
    xdp_ms: float
    db_ms: float
    ml_ms: float
    install_ms: float
    total_ms: float
    detected_percent: float
    f1_percent: float


@dataclass
class ControlPlaneBaseline:
    """Simulates the sampled control-plane loop over a packet trace."""

    model: object  # anything with .predict(features) -> {0,1}
    stages: StageLatencies = field(default_factory=StageLatencies)
    accelerator: AcceleratorModel = CPU_XEON
    ring_capacity: int = 4096
    seed: int = 0

    def run(self, trace: PacketTrace, sampling_rate: float) -> BaselineResult:
        """Replay the trace with the given telemetry sampling probability.

        Dilated traces scale the per-materialized-packet sampling
        probability by the dilation factor, preserving the *real* telemetry
        arrival rate (samples/second) of the 5 Gbps stream.
        """
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        rng = np.random.default_rng(self.seed)
        packets = trace.packets
        n = len(packets)
        effective_rate = min(1.0, sampling_rate * trace.time_dilation)
        sampled_mask = rng.random(n) < effective_rate
        sampled_idx = np.flatnonzero(sampled_mask)
        times = np.array([p.time for p in packets])

        # --- server batch loop -------------------------------------------
        rule_time: dict[int, float] = {}  # flow_id -> install completion
        flagged_flows: set[int] = set()
        batch_sizes: list[int] = []
        backlogs: list[int] = []
        lat_xdp: list[float] = []
        lat_db: list[float] = []
        lat_ml: list[float] = []
        lat_install: list[float] = []
        lat_total: list[float] = []

        cursor = 0          # next sampled packet index not yet picked up
        now = 0.0
        n_rules = 0
        while cursor < len(sampled_idx):
            # Wait for at least one sample to be present.
            first_time = times[sampled_idx[cursor]]
            now = max(now, first_time)
            # Pick up everything that has arrived (bounded by the NIC ring).
            arrived = np.searchsorted(times[sampled_idx], now, side="right")
            batch_end = min(arrived, cursor + self.ring_capacity)
            batch = sampled_idx[cursor:batch_end]
            backlog = arrived - batch_end
            cursor = batch_end
            b = len(batch)
            if b == 0:
                continue

            xdp = self.stages.xdp_base_ms + self.stages.xdp_per_pkt_ms * b
            db = self.stages.db_ms(b)
            ml = self.stages.ml_base_ms + self.accelerator.compute_ms_per_item * b

            feats = np.stack([packets[i].features for i in batch])
            preds = np.asarray(self.model.predict(feats)).reshape(-1)
            new_flows = {
                packets[i].flow_id
                for i, p in zip(batch, preds)
                if p == 1 and packets[i].flow_id not in flagged_flows
            }
            install = 0.0
            for flow in sorted(new_flows):
                install += (
                    self.stages.install_per_rule_ms
                    + self.stages.install_growth_ms_per_krule * (n_rules / 1000.0)
                )
                n_rules += 1
            total = xdp + db + ml + install
            now += total / 1e3
            for flow in new_flows:
                flagged_flows.add(flow)
                rule_time[flow] = now

            batch_sizes.append(b)
            backlogs.append(int(backlog))
            lat_xdp.append(xdp)
            lat_db.append(db)
            lat_ml.append(ml)
            lat_install.append(install)
            lat_total.append(total)

        # --- score every packet against installed rules -------------------
        labels = trace.columns().labels
        marked = np.array(
            [
                packet.flow_id in rule_time and packet.time >= rule_time[packet.flow_id]
                for packet in packets
            ],
            dtype=np.int64,
        )
        return BaselineResult(
            sampling_rate=sampling_rate,
            mean_batch=float(np.mean(batch_sizes)) if batch_sizes else 0.0,
            mean_backlog=float(np.mean(backlogs)) if backlogs else 0.0,
            xdp_ms=float(np.mean(lat_xdp)) if lat_xdp else 0.0,
            db_ms=float(np.mean(lat_db)) if lat_db else 0.0,
            ml_ms=float(np.mean(lat_ml)) if lat_ml else 0.0,
            install_ms=float(np.mean(lat_install)) if lat_install else 0.0,
            total_ms=float(np.mean(lat_total)) if lat_total else 0.0,
            detected_percent=100.0 * detection_rate(labels, marked),
            f1_percent=100.0 * f1_score(labels, marked),
        )
