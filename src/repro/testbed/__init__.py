"""End-to-end testbed: traffic, control-plane baseline, Taurus data plane,
online training, and the Table 8 harness."""

from .control import BaselineResult, ControlPlaneBaseline, StageLatencies
from .dataplane import DataPlaneResult, TaurusDataPlane
from .experiment import (
    DEFAULT_SAMPLING_RATES,
    EndToEndExperiment,
    EndToEndRow,
    format_table8,
)
from .producers import (
    Arrival,
    bursty_schedule,
    chunk_columns,
    replay_virtual,
    replay_wall,
)
from .traffic import Workload, build_workload
from .training import ConvergencePoint, OnlineTrainer, TrainingCostModel

__all__ = [
    "BaselineResult",
    "ControlPlaneBaseline",
    "StageLatencies",
    "DataPlaneResult",
    "TaurusDataPlane",
    "DEFAULT_SAMPLING_RATES",
    "EndToEndExperiment",
    "EndToEndRow",
    "format_table8",
    "Arrival",
    "bursty_schedule",
    "chunk_columns",
    "replay_virtual",
    "replay_wall",
    "Workload",
    "build_workload",
    "ConvergencePoint",
    "OnlineTrainer",
    "TrainingCostModel",
]
