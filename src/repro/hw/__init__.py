"""Hardware models: the MapReduce block and the area/power/ASIC model."""

from .area import cu_area_mm2, fu_area_um2, grid_area_mm2, grid_composition, mu_area_mm2
from .asic import OverheadReport, TaurusChip
from .grid import BatchInferenceResult, InferenceResult, MapReduceBlock
from .params import (
    CLOCK_GHZ,
    CUGeometry,
    DEFAULT_CU_GEOMETRY,
    GRID_COLS,
    GRID_CU_TO_MU_RATIO,
    GRID_ROWS,
    HOP_CYCLES,
    MU_ACCESS_CYCLES,
    PHV_INTERFACE_CYCLES,
    SwitchChipParams,
)
from .power import cu_power_mw, fu_power_uw, grid_power_mw, mu_power_mw

__all__ = [
    "cu_area_mm2",
    "fu_area_um2",
    "grid_area_mm2",
    "grid_composition",
    "mu_area_mm2",
    "OverheadReport",
    "TaurusChip",
    "BatchInferenceResult",
    "InferenceResult",
    "MapReduceBlock",
    "CLOCK_GHZ",
    "CUGeometry",
    "DEFAULT_CU_GEOMETRY",
    "GRID_COLS",
    "GRID_CU_TO_MU_RATIO",
    "GRID_ROWS",
    "HOP_CYCLES",
    "MU_ACCESS_CYCLES",
    "PHV_INTERFACE_CYCLES",
    "SwitchChipParams",
    "cu_power_mw",
    "fu_power_uw",
    "grid_power_mw",
    "mu_power_mw",
]
