"""Technology and microarchitecture parameters for the Taurus ASIC model.

The paper synthesizes the MapReduce block with FreePDK15 (a predictive 15 nm
standard-cell library) and CACTI 7.0 for SRAM estimates.  We cannot run
synthesis here, so this module encodes an analytical model *calibrated to
every anchor the paper publishes*:

====================  =======================================  ============
Anchor                Paper value                              Section
====================  =======================================  ============
per-FU area (16x4)    fix8 670 / fix16 1338 / fix32 2949 um^2  Table 4
per-FU power (16x4)   fix8 456 / fix16 887 / fix32 2341 uW     Table 4
CU (16x4, routed)     0.044 mm^2 (~680 um^2/FU avg)            5.1.1
MU (16x1024, routed)  0.029 mm^2                               5.1.1
Grid (12x10, 3:1)     4.8 mm^2                                 5.1.1
Switch chip           500 mm^2, 4 pipelines x 32 MATs, 270 W   Table 5
Block overhead        +3.8% area, +2.8% power                  Table 5
Clock                 1 GHz (1 GPkt/s line rate)               Section 4
Latency costs         map 1 cyc, 16-lane reduce 4 cyc,         5.1.3
                      ~5 cyc per data movement
====================  =======================================  ============

The lane/stage scaling curves (Fig. 9) follow a standard
core-plus-amortized-control decomposition: per-FU cost = FU datapath core +
CU control overhead shared across ``lanes * stages`` FUs.  Constants are fit
so the (16, 4) point reproduces Table 4 exactly and the 4..32-lane trend
matches Fig. 9's range.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CLOCK_GHZ",
    "FU_CORE_AREA_UM2",
    "CU_CONTROL_AREA_UM2",
    "FU_CORE_POWER_UW",
    "CU_CONTROL_POWER_UW",
    "CU_ROUTING_AREA_PER_LANE_UM2",
    "SRAM_BIT_CELL_UM2",
    "SRAM_BANK_PERIPHERY_UM2",
    "MU_ROUTING_AREA_UM2",
    "MU_ACCESS_POWER_UW",
    "HOP_CYCLES",
    "PHV_INTERFACE_CYCLES",
    "MU_ACCESS_CYCLES",
    "SwitchChipParams",
    "CUGeometry",
    "DEFAULT_CU_GEOMETRY",
    "DEFAULT_MU_BANKS",
    "DEFAULT_MU_ENTRIES",
    "GRID_ROWS",
    "GRID_COLS",
    "GRID_CU_TO_MU_RATIO",
    "GRID_AVG_ACTIVITY",
]

# ----------------------------------------------------------------------
# Clocking (Section 4: pipelining guarantees a 1 GHz clock)
# ----------------------------------------------------------------------
CLOCK_GHZ = 1.0

# ----------------------------------------------------------------------
# FU datapath + CU control area model (um^2), keyed by precision name.
#
#   per_fu_area(prec, lanes, stages) =
#       FU_CORE_AREA[prec] + CU_CONTROL_AREA[prec] / (lanes * stages)
#
# The CU has ONE control path shared by all lanes x stages FUs — the
# SIMD-vs-VLIW argument of Section 2.1.1 and why "theoretically, more
# stages are more efficient" (Section 5.1.1).  Fit: fix8 at 16x4 =
# 390 + 17920/64 = 670 (Table 4); the 4-lane point lands at ~1510 um^2,
# matching Fig. 9a's ~1.5k ceiling, and 32 lanes at ~530, matching its
# floor.  fix16/fix32 scale the multiplier-dominated core quadratically-
# ish: x2.0 and x4.4 overall (Table 4 ratios).
# ----------------------------------------------------------------------
FU_CORE_AREA_UM2 = {"fix8": 390.0, "fix16": 779.0, "fix32": 1716.0}
CU_CONTROL_AREA_UM2 = {"fix8": 17920.0, "fix16": 35776.0, "fix32": 78912.0}

# Power model (uW per FU at 10% switching activity), same decomposition.
# fix8 at 16x4 = 330 + 8064/64 = 456 (Table 4).
FU_CORE_POWER_UW = {"fix8": 330.0, "fix16": 642.0, "fix32": 1694.0}
CU_CONTROL_POWER_UW = {"fix8": 8064.0, "fix16": 15680.0, "fix32": 41408.0}

# Static interconnect share attached to each CU: the difference between the
# paper's routed CU (0.044 mm^2) and 64 synthesized FUs (64 x 670 um^2).
CU_ROUTING_AREA_PER_LANE_UM2 = 70.0

# ----------------------------------------------------------------------
# MU (banked SRAM) model.  16 banks x 1024 x 8 bits = 16 KB; the routed MU
# is 0.029 mm^2.  CACTI-style decomposition: bit cells + per-bank periphery
# + routing.  131072 bits x 0.15 + 16 x 500 + 1120 = 28.8k um^2.
# ----------------------------------------------------------------------
SRAM_BIT_CELL_UM2 = 0.15
SRAM_BANK_PERIPHERY_UM2 = 500.0
MU_ROUTING_AREA_UM2 = 1120.0
MU_ACCESS_POWER_UW = 2000.0  # per active MU

# ----------------------------------------------------------------------
# Latency costs (cycles), Section 5.1.3.
# ----------------------------------------------------------------------
HOP_CYCLES = 5            # "roughly five cycles for each data movement"
PHV_INTERFACE_CYCLES = 4  # PHV <-> fabric FIFO boundary, each direction
MU_ACCESS_CYCLES = 1      # "SRAM-based operations ... single-cycle accesses"


@dataclass(frozen=True)
class CUGeometry:
    """A CU configuration point in the design space."""

    lanes: int
    stages: int
    precision: str = "fix8"

    def __post_init__(self) -> None:
        if self.lanes <= 0 or self.stages <= 0:
            raise ValueError("lanes and stages must be positive")
        if self.precision not in FU_CORE_AREA_UM2:
            raise ValueError(f"unknown precision {self.precision!r}")

    @property
    def n_fus(self) -> int:
        return self.lanes * self.stages


#: The paper's final configuration: 16 lanes, 4 stages, fix8.
DEFAULT_CU_GEOMETRY = CUGeometry(lanes=16, stages=4, precision="fix8")

DEFAULT_MU_BANKS = 16
DEFAULT_MU_ENTRIES = 1024

#: Final grid: 12 x 10 with a 3:1 CU:MU ratio -> 90 CUs + 30 MUs.
GRID_ROWS = 12
GRID_COLS = 10
GRID_CU_TO_MU_RATIO = 3

#: Average datapath activity used for the whole-grid power figure.  App rows
#: in Table 5 count fully-active FUs (456 uW each); the grid row's 2.8%
#: implies ~1.89 W per block, i.e. ~72% average activity across the fabric.
GRID_AVG_ACTIVITY = 0.72


@dataclass(frozen=True)
class SwitchChipParams:
    """The commercial switch Taurus is grafted onto (Table 5 footnote)."""

    die_area_mm2: float = 500.0
    n_pipelines: int = 4
    mats_per_pipeline: int = 32
    mat_area_fraction: float = 0.50  # "50% of the chip area is ... MATs"
    chip_power_w: float = 270.0

    @property
    def pipeline_area_mm2(self) -> float:
        """Per-pipeline share of the die."""
        return self.die_area_mm2 / self.n_pipelines

    @property
    def pipeline_power_w(self) -> float:
        """Per-pipeline share of chip power."""
        return self.chip_power_w / self.n_pipelines

    @property
    def mat_area_mm2(self) -> float:
        """Area of a single MAT stage."""
        total_mats = self.n_pipelines * self.mats_per_pipeline
        return self.die_area_mm2 * self.mat_area_fraction / total_mats
