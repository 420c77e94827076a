"""Online congestion control (the Indigo LSTM benchmark).

Indigo maps a window of path observations to a congestion-window action.
On a server it decides every ~10 ms; on Taurus every ~805 ns — "permitting
more accurate control decisions and faster reaction times" (Section 5.1.2).
This module trains the imitation LSTM, deploys it on the fabric, and runs a
closed-loop bottleneck simulation comparing decision intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import (
    ACTIONS,
    CongestionTraceConfig,
    generate_congestion_traces,
)
from ..hw.grid import MapReduceBlock
from ..mapreduce import lstm_graph
from ..ml import LSTM, indigo_lstm

__all__ = ["CongestionController", "closed_loop_metrics"]


@dataclass
class CongestionController:
    """A trained Indigo-style controller attached to the fabric."""

    lstm: LSTM
    block: MapReduceBlock
    config: CongestionTraceConfig

    @classmethod
    def train(
        cls, n_sequences: int = 1500, epochs: int = 12, seed: int = 0
    ) -> tuple["CongestionController", float]:
        """Imitation-train on oracle-labeled traces; returns (app, accuracy)."""
        config = CongestionTraceConfig()
        sequences, actions = generate_congestion_traces(n_sequences, config, seed=seed)
        cut = int(0.8 * len(sequences))
        model = indigo_lstm(input_size=sequences.shape[-1], n_actions=len(ACTIONS), seed=seed)
        model.fit(sequences[:cut], actions[:cut], epochs=epochs)
        accuracy = float(
            np.mean(model.predict(sequences[cut:]) == actions[cut:])
        )
        block = MapReduceBlock(
            lstm_graph(model, window_steps=config.window_steps, name="indigo_lstm")
        )
        return cls(lstm=model, block=block, config=config), accuracy

    def decide(self, window: np.ndarray) -> float:
        """Map an observation window (T, D) to a cwnd factor via the fabric."""
        flat = np.asarray(window, dtype=np.float64).reshape(-1)
        result = self.block.process(flat)
        return ACTIONS[int(np.atleast_1d(result.value)[0])]


def closed_loop_metrics(
    controller: CongestionController,
    decision_interval_s: float,
    sim_time_s: float = 0.2,
    seed: int = 0,
) -> dict[str, float]:
    """Run the bottleneck loop under a given decision interval.

    Slower decisions (the server's ~10 ms) let queues grow between
    actions; faster ones (Taurus's ~805 ns, here capped at the observation
    step) hold the operating point.  Returns utilization and queueing stats.
    """
    cfg = controller.config
    rng = np.random.default_rng(seed)
    capacity_pps = cfg.bottleneck_gbps * 1e9 / 8.0 / 1500.0
    step_s = cfg.step_ms / 1e3
    decision_every = max(1, int(round(decision_interval_s / step_s)))

    cwnd = 16.0
    queue = 0.0
    rtt_s = cfg.base_rtt_ms / 1e3
    history: list[np.ndarray] = []
    utils, queues, losses = [], [], 0.0
    steps = int(sim_time_s / step_s)
    burst_until = -1
    for t in range(steps):
        # Cross traffic swings faster than a 10 ms control loop can track
        # (2 ms period) and adds microbursts — the regime where per-packet
        # decisions pay off (Section 2).
        if t > burst_until and rng.random() < 0.01:
            burst_until = t + int(rng.integers(10, 40))
        burst = 0.30 if t <= burst_until else 0.0
        cross = 0.35 + 0.25 * np.sin(2 * np.pi * t / 20.0) + burst + rng.normal(0, 0.02)
        cross = float(np.clip(cross, 0.0, 0.95))
        send_pps = cwnd / max(rtt_s, 1e-6)
        avail = capacity_pps * (1.0 - cross)
        queue += (send_pps - avail) * step_s
        loss = 0.0
        if queue > cfg.buffer_pkts:
            loss = 1.0
            losses += 1
            queue = float(cfg.buffer_pkts)
        queue = max(queue, 0.0)
        rtt_s = cfg.base_rtt_ms / 1e3 + queue / max(avail, 1e-9)
        delivery = min(send_pps, avail)
        utils.append(delivery / max(avail, 1e-9))
        queues.append(queue / cfg.buffer_pkts)
        history.append(
            np.array([
                (queue / max(avail, 1e-9)) * 1e3,
                delivery / capacity_pps,
                send_pps / capacity_pps,
                cwnd / 256.0,
                loss,
            ])
        )
        if len(history) >= cfg.window_steps and t % decision_every == 0:
            window = np.stack(history[-cfg.window_steps:])
            factor = controller.decide(window)
            # Actions are per-RTT multiplicative factors; more frequent
            # decisions take proportionally smaller steps (continuous
            # control in the limit — the benefit of per-packet inference).
            rtt_steps = max(1.0, rtt_s / step_s)
            exponent = min(1.0, decision_every / rtt_steps)
            cwnd = float(np.clip(cwnd * factor**exponent, 2.0, 1024.0))
        if loss:
            # Safety bound (Section 3.2): a postprocessing rule halves the
            # window on loss regardless of the model's decision.
            cwnd = max(2.0, cwnd * 0.5)
    return {
        "mean_utilization": float(np.mean(utils)),
        "mean_queue_fraction": float(np.mean(queues)),
        "p99_queue_fraction": float(np.quantile(queues, 0.99)),
        "loss_events": losses,
    }
