"""Power model for CUs, MUs, and the MapReduce grid.

Reproduces Table 4 (per-FU power by precision at 10% switching), Fig. 9b
(per-FU power vs lanes/stages), and Table 5's app/grid power overheads.
"""

from __future__ import annotations

from .params import (
    CU_CONTROL_POWER_UW,
    CUGeometry,
    DEFAULT_CU_GEOMETRY,
    FU_CORE_POWER_UW,
    GRID_AVG_ACTIVITY,
    MU_ACCESS_POWER_UW,
)
from .area import grid_composition

__all__ = ["fu_power_uw", "cu_power_mw", "mu_power_mw", "grid_power_mw"]


def fu_power_uw(geometry: CUGeometry) -> float:
    """Per-FU power (uW) at 10% switching activity, control amortized
    across the full lanes x stages FU array."""
    core = FU_CORE_POWER_UW[geometry.precision]
    control = CU_CONTROL_POWER_UW[geometry.precision]
    return core + control / geometry.n_fus


def cu_power_mw(geometry: CUGeometry = DEFAULT_CU_GEOMETRY, activity: float = 1.0) -> float:
    """Power of one fully-mapped CU (mW); ``activity`` scales the datapath.

    Table 5's per-application rows count every mapped FU as active
    (activity=1.0 relative to the 10%-switching baseline of Table 4).
    """
    if not 0.0 <= activity <= 1.0:
        raise ValueError("activity must be in [0, 1]")
    return fu_power_uw(geometry) * geometry.n_fus * activity / 1e3


def mu_power_mw() -> float:
    """Power of one active MU (mW)."""
    return MU_ACCESS_POWER_UW / 1e3


def grid_power_mw() -> float:
    """Whole-block power (mW) at the fabric's average activity factor.

    The paper's 2.8% chip-power overhead corresponds to ~1.9 W per block,
    i.e. the fabric's FUs average ~72% of their fully-mapped activity
    across the benchmark suite (unused CUs are disabled).
    """
    n_cus, n_mus = grid_composition()
    return n_cus * cu_power_mw(DEFAULT_CU_GEOMETRY, GRID_AVG_ACTIVITY) + n_mus * mu_power_mw()
