"""Online training (Section 5.2.3, Figs. 13-14).

The control plane ingests sampled telemetry, trains the anomaly DNN in
batches, and pushes weight updates to the data plane (update delay
estimated by flow-rule installation time, as the paper does).  We record
the data plane's F1 on a held-out set after every update, producing the
F1-vs-time convergence curves:

* Fig. 13 sweeps the sampling rate (higher rates fill batches sooner);
* Fig. 14 sweeps epochs x batch size at a fixed sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets import ConnectionDataset, dnn_feature_matrix
from ..ml import SGD, f1_score
from ..ml.dnn import DNN, anomaly_detection_dnn

__all__ = ["TrainingCostModel", "ConvergencePoint", "OnlineTrainer"]


@dataclass(frozen=True)
class TrainingCostModel:
    """Wall-clock cost of one update cycle.

    ``collect`` time comes from the telemetry arrival rate; training costs
    are per sample per epoch on the control-plane server; the weight-update
    push is estimated by flow-rule installation time (~3 ms), per the paper.
    """

    train_ms_per_sample_epoch: float = 0.03
    train_overhead_ms: float = 5.0
    install_ms: float = 3.0

    def update_ms(self, batch_size: int, epochs: int) -> float:
        return (
            self.train_overhead_ms
            + self.train_ms_per_sample_epoch * batch_size * epochs
            + self.install_ms
        )


@dataclass(frozen=True)
class ConvergencePoint:
    """One (time, F1) sample of a convergence curve."""

    time_s: float
    f1_percent: float
    updates: int


@dataclass
class OnlineTrainer:
    """Simulates the telemetry -> train -> weight-push loop.

    Parameters
    ----------
    packet_rate_pps:
        Live traffic rate; telemetry arrives at ``rate * sampling``.
    train_pool / test_pool:
        Connection datasets; telemetry samples are drawn from the train
        pool (with the live label mix), F1 is evaluated on the test pool.
    """

    train_pool: ConnectionDataset
    test_pool: ConnectionDataset
    packet_rate_pps: float = 800_000.0
    cost: TrainingCostModel = field(default_factory=TrainingCostModel)
    lr: float = 0.05
    seed: int = 0

    def run(
        self,
        sampling_rate: float,
        batch_size: int = 64,
        epochs: int = 1,
        horizon_s: float = 10.0,
        max_updates: int = 400,
    ) -> list[ConvergencePoint]:
        """Run the loop until ``horizon_s``; returns the convergence curve."""
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        if batch_size <= 0 or epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        rng = np.random.default_rng(self.seed)
        telemetry_rate = self.packet_rate_pps * sampling_rate
        if telemetry_rate <= 0:
            raise ValueError("sampling rate too low for any telemetry")

        x_train = dnn_feature_matrix(self.train_pool)
        y_train = self.train_pool.labels
        x_test = dnn_feature_matrix(self.test_pool)
        y_test = self.test_pool.labels

        model: DNN = anomaly_detection_dnn(seed=self.seed)
        optimizer = SGD(lr=self.lr, momentum=0.9)
        now = 0.0
        curve = [self._point(model, x_test, y_test, now, 0)]
        for update in range(1, max_updates + 1):
            # Collect a batch of telemetry.
            collect_s = batch_size / telemetry_rate
            now += collect_s
            if now > horizon_s:
                break
            idx = rng.integers(0, len(x_train), size=batch_size)
            for __ in range(epochs):
                model.train_batch(x_train[idx], y_train[idx], optimizer)
            now += self.cost.update_ms(batch_size, epochs) / 1e3
            curve.append(self._point(model, x_test, y_test, now, update))
        return curve

    @staticmethod
    def _point(
        model: DNN, x_test: np.ndarray, y_test: np.ndarray, now: float, updates: int
    ) -> ConvergencePoint:
        preds = model.predict(x_test)
        return ConvergencePoint(
            time_s=now, f1_percent=100.0 * f1_score(y_test, preds), updates=updates
        )

    @staticmethod
    def time_to_reach(curve: list[ConvergencePoint], f1_percent: float) -> float | None:
        """First time the curve crosses an F1 level (None if never)."""
        for point in curve:
            if point.f1_percent >= f1_percent:
                return point.time_s
        return None
