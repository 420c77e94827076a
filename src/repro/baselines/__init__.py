"""Baselines: control-plane accelerators, MAT-only ML, and the rules-vs-weights
memory comparison."""

from .accelerators import ACCELERATORS, CPU_XEON, GPU_T4, TPU_V2, AcceleratorModel
from .controlplane import weights_vs_rules_bytes
from .mat_ml import (
    BinarizedDNN,
    MatCost,
    iisy_mat_cost,
    n2net_mat_cost,
    taurus_iso_area_mats,
)

__all__ = [
    "ACCELERATORS",
    "CPU_XEON",
    "GPU_T4",
    "TPU_V2",
    "AcceleratorModel",
    "weights_vs_rules_bytes",
    "BinarizedDNN",
    "MatCost",
    "iisy_mat_cost",
    "n2net_mat_cost",
    "taurus_iso_area_mats",
]
