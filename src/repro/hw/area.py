"""Area model for CUs, MUs, and the MapReduce grid.

Reproduces Table 4 (per-FU area by precision), Fig. 9a (per-FU area vs
lanes/stages), and the Section 5.1.1 block-level figures (0.044 mm^2 CU,
0.029 mm^2 MU, 4.8 mm^2 12x10 grid).
"""

from __future__ import annotations

from .params import (
    CU_CONTROL_AREA_UM2,
    CU_ROUTING_AREA_PER_LANE_UM2,
    CUGeometry,
    DEFAULT_CU_GEOMETRY,
    DEFAULT_MU_BANKS,
    DEFAULT_MU_ENTRIES,
    FU_CORE_AREA_UM2,
    GRID_COLS,
    GRID_CU_TO_MU_RATIO,
    GRID_ROWS,
    MU_ROUTING_AREA_UM2,
    SRAM_BANK_PERIPHERY_UM2,
    SRAM_BIT_CELL_UM2,
)

__all__ = [
    "fu_area_um2",
    "cu_area_mm2",
    "mu_area_mm2",
    "grid_area_mm2",
    "grid_composition",
]

_UM2_PER_MM2 = 1e6


def fu_area_um2(geometry: CUGeometry) -> float:
    """Synthesized area of one functional unit (um^2), control amortized.

    Per-FU cost falls with lane and stage count because the CU's single
    control path is shared by every FU in the lanes x stages array (the
    SIMD-vs-VLIW argument of Section 2.1.1).
    """
    core = FU_CORE_AREA_UM2[geometry.precision]
    control = CU_CONTROL_AREA_UM2[geometry.precision]
    return core + control / geometry.n_fus


def cu_area_mm2(geometry: CUGeometry = DEFAULT_CU_GEOMETRY) -> float:
    """Full CU area (mm^2) including its interconnect share."""
    datapath = fu_area_um2(geometry) * geometry.n_fus
    routing = CU_ROUTING_AREA_PER_LANE_UM2 * geometry.lanes
    return (datapath + routing) / _UM2_PER_MM2


def mu_area_mm2() -> float:
    """Banked-SRAM MU area (mm^2, 16 banks x 1024 x 8 bit) including its
    interconnect share."""
    cells = DEFAULT_MU_BANKS * DEFAULT_MU_ENTRIES * 8 * SRAM_BIT_CELL_UM2
    periphery = DEFAULT_MU_BANKS * SRAM_BANK_PERIPHERY_UM2
    return (cells + periphery + MU_ROUTING_AREA_UM2) / _UM2_PER_MM2


def grid_composition(
    rows: int = GRID_ROWS,
    cols: int = GRID_COLS,
    cu_to_mu_ratio: int = GRID_CU_TO_MU_RATIO,
) -> tuple[int, int]:
    """(n_cus, n_mus) for a checkerboard grid with the given CU:MU ratio."""
    if rows <= 0 or cols <= 0 or cu_to_mu_ratio <= 0:
        raise ValueError("grid parameters must be positive")
    total = rows * cols
    n_mus = total // (cu_to_mu_ratio + 1)
    return total - n_mus, n_mus


def grid_area_mm2() -> float:
    """Area of a full MapReduce block (paper: 4.8 mm^2 for 12x10, 3:1)."""
    n_cus, n_mus = grid_composition()
    return n_cus * cu_area_mm2() + n_mus * mu_area_mm2()
