"""PISA switch substrate: parser, PHV, MATs, registers, scheduler, pipeline."""

from .actions import MAX_OPS_PER_STAGE, Action, Primitive
from .mat import MatchActionTable, MatchKind, TableEntry
from .packet import Packet, from_record
from .parser import Parser, ParseState, default_layout, default_parser
from .phv import PHV, PHVBatch, PHVLayout
from .pipeline import (
    DECISION_DROP,
    DECISION_FLAG,
    DECISION_FORWARD,
    DEFAULT_TRACE_CHUNK,
    PipelineResult,
    TaurusPipeline,
    TracePipelineResult,
    port_bypass,
    threshold_postprocess,
)
from .registers import FlowFeatureAccumulator, RegisterArray, fnv1a_columns
from .scheduler import PacketQueue, RoundRobinArbiter

__all__ = [
    "MAX_OPS_PER_STAGE",
    "Action",
    "Primitive",
    "MatchActionTable",
    "MatchKind",
    "TableEntry",
    "Packet",
    "from_record",
    "Parser",
    "ParseState",
    "default_layout",
    "default_parser",
    "PHV",
    "PHVBatch",
    "PHVLayout",
    "DECISION_DROP",
    "DECISION_FLAG",
    "DECISION_FORWARD",
    "DEFAULT_TRACE_CHUNK",
    "PipelineResult",
    "TaurusPipeline",
    "TracePipelineResult",
    "port_bypass",
    "threshold_postprocess",
    "FlowFeatureAccumulator",
    "RegisterArray",
    "fnv1a_columns",
    "PacketQueue",
    "RoundRobinArbiter",
]
