"""The integrated Taurus switch: parser + MATs + MapReduce + scheduler.

:class:`TaurusSwitch` is the library's headline object — a programmable
switch you load a model into and push packets through, with the compiled
design's area/power/latency a property away.  It wires together the PISA
pipeline, the compiled MapReduce block, and the chip-level accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.pipeline import CompiledDesign
from ..compiler.place_route import GridSpec, Placement, place_and_route
from ..hw.asic import OverheadReport, TaurusChip
from ..hw.grid import MapReduceBlock
from ..mapreduce.ir import DataflowGraph
from ..pisa import (
    Packet,
    PipelineResult,
    TaurusPipeline,
    TracePipelineResult,
    threshold_postprocess,
)
from .config import TaurusConfig

__all__ = ["TaurusSwitch"]


@dataclass
class TaurusSwitch:
    """A Taurus-enabled switch running one ML program per pipeline.

    Build with :meth:`with_program`; process packets with
    :meth:`process`; interrogate cost with :attr:`design` /
    :meth:`overheads`.
    """

    config: TaurusConfig
    pipeline: TaurusPipeline
    block: MapReduceBlock
    chip: TaurusChip

    @classmethod
    def with_program(
        cls,
        graph: DataflowGraph,
        feature_names: tuple[str, ...],
        config: TaurusConfig | None = None,
        postprocess=None,
        bypass_predicate=None,
        postprocess_batch=None,
        bypass_predicate_batch=None,
    ) -> "TaurusSwitch":
        """Configure a switch with a compiled MapReduce program.

        Decision hooks come in scalar/vectorized pairs, and
        :class:`~repro.pisa.TaurusPipeline` owns the pair rule: give both
        hooks of a pair or neither (a lone hook is a ``ValueError``).  The
        scalar hook is the oracle; its twin must agree with it row for
        row.  With neither postprocess hook given, both threshold at
        ``config.decision_threshold``.
        """
        config = config or TaurusConfig()
        block = MapReduceBlock(
            graph,
            geometry=config.geometry,
            cu_budget=config.n_cus,
            mu_budget=config.n_mus,
        )
        if postprocess is None and postprocess_batch is None:
            postprocess, postprocess_batch = threshold_postprocess(
                config.decision_threshold
            )
        pipeline = TaurusPipeline(
            block=block,
            feature_names=feature_names,
            postprocess=postprocess,
            postprocess_batch=postprocess_batch,
            bypass_predicate=bypass_predicate,
            bypass_predicate_batch=bypass_predicate_batch,
        )
        return cls(
            config=config,
            pipeline=pipeline,
            block=block,
            chip=TaurusChip(config.chip),
        )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> PipelineResult:
        """One packet through the full pipeline."""
        return self.pipeline.process(packet)

    def process_trace_batch(
        self, trace, chunk_size: int | None = None
    ) -> TracePipelineResult:
        """A whole trace through the vectorized pipeline path."""
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        return self.pipeline.process_trace_batch(trace, **kwargs)

    def infer(self, features: np.ndarray) -> np.ndarray:
        """Raw fabric inference, bypassing the header pipeline."""
        return np.atleast_1d(self.block.process(features).value)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def install_program(self, graph: DataflowGraph) -> None:
        """Push a new program / weight update (Fig. 1's weight path)."""
        self.block.reconfigure(graph)

    def install_preprocess(self, table) -> None:
        self.pipeline.install_preprocess(table)

    def install_postprocess(self, table) -> None:
        self.pipeline.install_postprocess(table)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    @property
    def design(self) -> CompiledDesign:
        return self.block.design

    def overheads(self) -> OverheadReport:
        """Area/power/latency of the installed program (a Table 5 row)."""
        return self.chip.design_overheads(self.design)

    def placement(self) -> Placement:
        """Place-and-route the installed program on this switch's grid."""
        grid = GridSpec(
            rows=self.config.grid_rows,
            cols=self.config.grid_cols,
            cu_to_mu_ratio=self.config.cu_to_mu_ratio,
        )
        return place_and_route(self.block.graph, grid, self.config.geometry)
