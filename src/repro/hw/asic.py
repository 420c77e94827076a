"""Chip-level accounting: Taurus blocks grafted onto a commercial switch.

Reproduces the Table 5 overhead columns: each of the switch's four
reconfigurable pipelines gains one MapReduce block; overheads are reported
against the per-pipeline share of a 500 mm^2 / 270 W die.  The iso-area view
(how many MATs one block displaces) is
:func:`~repro.baselines.mat_ml.taurus_iso_area_mats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler.pipeline import CompiledDesign
from .area import grid_area_mm2
from .params import SwitchChipParams
from .power import grid_power_mw

__all__ = ["TaurusChip", "OverheadReport"]


@dataclass(frozen=True)
class OverheadReport:
    """Area/power overhead of a design relative to the host switch."""

    name: str
    area_mm2: float
    area_percent: float
    power_mw: float
    power_percent: float
    latency_ns: float | None = None
    throughput_gpkt_s: float | None = None


@dataclass
class TaurusChip:
    """A PISA switch ASIC with one MapReduce block per pipeline."""

    switch: SwitchChipParams = field(default_factory=SwitchChipParams)

    # ------------------------------------------------------------------
    # Whole-grid overheads (the "12x10 Grid" row of Table 5)
    # ------------------------------------------------------------------
    def grid_overheads(self) -> OverheadReport:
        area = grid_area_mm2()
        power = grid_power_mw()
        return OverheadReport(
            name="12x10 Grid",
            area_mm2=area,
            area_percent=100.0 * area / self.switch.pipeline_area_mm2,
            power_mw=power,
            power_percent=100.0 * power / (self.switch.pipeline_power_w * 1e3),
        )

    # ------------------------------------------------------------------
    # Per-application overheads (the model rows of Table 5)
    # ------------------------------------------------------------------
    def design_overheads(self, design: CompiledDesign) -> OverheadReport:
        """Overheads counting "only the number of CUs and MUs performing
        useful work", with unused CUs disabled."""
        return OverheadReport(
            name=design.name,
            area_mm2=design.area_mm2,
            area_percent=100.0 * design.area_mm2 / self.switch.pipeline_area_mm2,
            power_mw=design.power_mw,
            power_percent=100.0 * design.power_mw / (self.switch.pipeline_power_w * 1e3),
            latency_ns=design.latency_ns,
            throughput_gpkt_s=design.throughput_gpkt_s,
        )

    def added_die_area_percent(self) -> float:
        """Total die growth with one block per pipeline (paper: 3.8%)."""
        return 100.0 * self.switch.n_pipelines * grid_area_mm2() / self.switch.die_area_mm2

    def switch_latency_overhead_percent(self, design: CompiledDesign) -> float:
        """Added latency vs a typical 1 us datacenter switch (Section 5.1.2:
        KMeans/SVM/DNN add 6.1% / 8.3% / 22.1%)."""
        return 100.0 * design.latency_ns / 1000.0
