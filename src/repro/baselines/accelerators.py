"""Control-plane inference accelerators (Table 2).

The paper benchmarks unbatched anomaly-DNN inference on a vectorized Xeon,
a Tesla T4, and a Cloud TPU v2-8, finding 0.67 / 1.15 / 3.51 ms — dominated
by framework and transfer setup, not math.  We model each accelerator with
the standard decomposition

    latency(batch) = framework_overhead + transfer(batch) + compute(batch)

with constants calibrated so batch-1 latency reproduces Table 2.  The
model also exposes the batching trade-off Table 8's baseline depends on:
bigger batches amortize setup but delay the first packet.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AcceleratorModel", "CPU_XEON", "GPU_T4", "TPU_V2", "ACCELERATORS"]


@dataclass(frozen=True)
class AcceleratorModel:
    """Latency model for one inference backend.

    Parameters (all milliseconds unless noted):

    framework_overhead_ms:
        Per-invocation software cost (TensorFlow session dispatch, kernel
        launch/queueing) — the dominant term for tiny models.
    transfer_ms_per_item:
        Per-sample host<->device movement (0 for the CPU).
    compute_ms_per_item:
        Per-sample math once the batch is resident; matrix-matrix
        efficiency makes this tiny for the anomaly DNN.
    """

    name: str
    framework_overhead_ms: float
    transfer_ms_per_item: float
    compute_ms_per_item: float

    def latency_ms(self, batch_size: int = 1) -> float:
        """End-to-end latency for one batch."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return (
            self.framework_overhead_ms
            + self.transfer_ms_per_item * batch_size
            + self.compute_ms_per_item * batch_size
        )

    def per_item_ms(self, batch_size: int) -> float:
        """Amortized per-sample latency (the batching win)."""
        return self.latency_ms(batch_size) / batch_size


#: Calibrated so latency_ms(1) matches Table 2.
CPU_XEON = AcceleratorModel(
    name="Broadwell Xeon",
    framework_overhead_ms=0.655,
    transfer_ms_per_item=0.0,
    compute_ms_per_item=0.015,
)
GPU_T4 = AcceleratorModel(
    name="Tesla T4 GPU",
    framework_overhead_ms=1.10,
    transfer_ms_per_item=0.045,
    compute_ms_per_item=0.005,
)
TPU_V2 = AcceleratorModel(
    name="Cloud TPU v2-8",
    framework_overhead_ms=3.40,
    transfer_ms_per_item=0.105,
    compute_ms_per_item=0.005,
)

ACCELERATORS = {model.name: model for model in (CPU_XEON, GPU_T4, TPU_V2)}
