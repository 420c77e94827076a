"""MapReduce abstraction: DSL, dataflow IR, and model frontends."""

from .dsl import MapReduceControlBlock, PatternTrace
from .frontend import (
    activation_graph,
    conv1d_graph,
    dnn_graph,
    inner_product_graph,
    kmeans_graph,
    lstm_graph,
    svm_graph,
)
from .ir import DataflowGraph, Node
from .ops import REDUCE_OPS, ReduceOp, reduce_tree_depth

__all__ = [
    "MapReduceControlBlock",
    "PatternTrace",
    "activation_graph",
    "conv1d_graph",
    "dnn_graph",
    "inner_product_graph",
    "kmeans_graph",
    "lstm_graph",
    "svm_graph",
    "DataflowGraph",
    "Node",
    "REDUCE_OPS",
    "ReduceOp",
    "reduce_tree_depth",
]
