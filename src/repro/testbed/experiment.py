"""End-to-end experiment harness (Table 8).

Ties together the workload generator, the trained/quantized anomaly model,
the control-plane baseline, and the Taurus data plane, producing the
paper's comparison rows for each sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets import dnn_feature_matrix
from ..fixpoint import quantize_model
from ..ml.dnn import DNN
from .control import BaselineResult, ControlPlaneBaseline, StageLatencies
from .dataplane import DataPlaneResult, TaurusDataPlane
from .traffic import Workload, build_workload

__all__ = [
    "EndToEndRow",
    "EndToEndExperiment",
    "DEFAULT_SAMPLING_RATES",
]

DEFAULT_SAMPLING_RATES = (1e-5, 1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class EndToEndRow:
    """One Table 8 row: baseline vs Taurus at a sampling rate."""

    sampling_rate: float
    baseline: BaselineResult
    taurus: DataPlaneResult

    @property
    def detection_advantage(self) -> float:
        """How many times more anomalous packets Taurus catches."""
        return self.taurus.detected_percent / max(self.baseline.detected_percent, 1e-6)


@dataclass
class EndToEndExperiment:
    """Builds the testbed once, then sweeps sampling rates.

    The Taurus data plane scores every packet regardless of the baseline's
    sampling rate, so its result is sampling-rate-independent: one streamed
    pass is computed lazily and reused for every row of the sweep (see
    :meth:`taurus_result`).  That pass runs the **entire** batched PISA
    pipeline — vectorized parse, flow registers, MAT stages, bypass split,
    batched MapReduce scoring, decisions (:meth:`TaurusDataPlane.run_switch`).
    """

    workload: Workload
    model: DNN
    dataplane: TaurusDataPlane
    stages: StageLatencies = field(default_factory=StageLatencies)
    seed: int = 0
    _taurus: DataPlaneResult | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls,
        n_connections: int = 6000,
        max_packets: int | None = 150_000,
        epochs: int = 25,
        seed: int = 0,
    ) -> "EndToEndExperiment":
        """Generate the workload and train/quantize the shared model."""
        from ..apps.anomaly import train_anomaly_dnn

        workload = build_workload(
            n_connections=n_connections, max_packets=max_packets, seed=seed
        )
        model = train_anomaly_dnn(workload.train, epochs=epochs, seed=seed)
        calibration = dnn_feature_matrix(workload.train)[:512]
        quantized = quantize_model(model, calibration)
        return cls(
            workload=workload,
            model=model,
            dataplane=TaurusDataPlane(quantized),
            seed=seed,
        )

    def taurus_result(self) -> DataPlaneResult:
        """The (sampling-rate-independent) Taurus pass, computed once."""
        if self._taurus is None:
            self._taurus = self.dataplane.run_switch(self.workload.trace)
        return self._taurus

    def run_row(self, sampling_rate: float) -> EndToEndRow:
        baseline = ControlPlaneBaseline(
            model=self.model, stages=self.stages, seed=self.seed
        ).run(self.workload.trace, sampling_rate)
        return EndToEndRow(
            sampling_rate=sampling_rate,
            baseline=baseline,
            taurus=self.taurus_result(),
        )

    def run(self, sampling_rates=DEFAULT_SAMPLING_RATES) -> list[EndToEndRow]:
        return [self.run_row(rate) for rate in sampling_rates]

    def verify_dataplane(self) -> bool:
        """Full-trace fabric-vs-vectorized equivalence on this workload."""
        return self.dataplane.verify_equivalence(self.workload.trace)


def format_table8(rows: list[EndToEndRow]) -> str:
    """Render rows in the paper's Table 8 layout."""
    lines = [
        "sampling  batch  backlog  | xdp_ms db_ms ml_ms inst_ms all_ms "
        "| det_base%% det_taurus%% | f1_base f1_taurus"
    ]
    for row in rows:
        b = row.baseline
        t = row.taurus
        lines.append(
            f"{row.sampling_rate:8.0e}  {b.mean_batch:5.0f}  {b.mean_backlog:7.0f} | "
            f"{b.xdp_ms:6.1f} {b.db_ms:5.1f} {b.ml_ms:5.1f} {b.install_ms:7.1f} "
            f"{b.total_ms:6.1f} | {b.detected_percent:9.3f} {t.detected_percent:11.1f} | "
            f"{b.f1_percent:7.3f} {t.f1_percent:9.1f}"
        )
    return "\n".join(lines)
