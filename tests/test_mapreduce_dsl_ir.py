"""Tests for the MapReduce DSL and dataflow IR."""

import numpy as np
import pytest

from repro.mapreduce import DataflowGraph, MapReduceControlBlock
from repro.mapreduce.ops import MAP_OPS, REDUCE_OPS, reduce_tree_depth


class PerceptronBlock(MapReduceControlBlock):
    """The Fig. 4 DNN-layer control block, verbatim in the DSL."""

    def build(self, features):
        w = self.weights["w"]
        linear = self.map(
            range(len(w)),
            lambda i: self.reduce(
                self.map(range(w.shape[1]), lambda j: w[i, j] * features[j]),
                lambda a, b: a + b,
            ),
        )
        return self.map(linear, lambda v: max(v, 0.0))


class TestDSL:
    def test_fig4_layer_matches_numpy(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(5, 8))
        x = rng.normal(size=8)
        block = PerceptronBlock()
        block.load_weights(w=w)
        out = block(x)
        assert np.allclose(out, np.maximum(w @ x, 0.0))

    def test_trace_counts_patterns(self):
        block = PerceptronBlock()
        block.load_weights(w=np.ones((3, 4)))
        block(np.ones(4))
        # Outer map (3 neurons) + 3 inner maps + activation map = 5 maps,
        # one reduce per neuron = 3 reduces.
        assert block.trace.maps == 5
        assert block.trace.reduces == 3
        assert block.trace.reduce_elements == 12

    def test_trace_resets_per_call(self):
        block = PerceptronBlock()
        block.load_weights(w=np.ones((2, 2)))
        block(np.ones(2))
        first = block.trace.maps
        block(np.ones(2))
        assert block.trace.maps == first

    def test_reduce_is_tree_ordered(self):
        """Non-associative body exposes evaluation order; must be a tree."""
        block = MapReduceControlBlock()
        got = block.reduce([1.0, 2.0, 3.0, 4.0], lambda a, b: a + b)
        assert got == 10.0
        # Tree order for subtraction: ((1-2)-(3-4)) = 0, fold would give -8.
        tree = block.reduce([1.0, 2.0, 3.0, 4.0], lambda a, b: a - b)
        assert tree == 0.0

    def test_reduce_empty_raises(self):
        with pytest.raises(ValueError):
            MapReduceControlBlock().reduce([], lambda a, b: a + b)

    def test_map_int_domain(self):
        block = MapReduceControlBlock()
        assert block.map(4, lambda i: i * 2).tolist() == [0, 2, 4, 6]


class TestOps:
    def test_all_map_ops_execute(self):
        a = np.array([1.0, -2.0])
        b = np.array([0.5, 0.5])
        for name, op in MAP_OPS.items():
            out = op.fn(a, b) if op.arity == 2 else op.fn(a)
            assert out.shape == a.shape, name

    def test_reduce_ops(self):
        v = np.array([3.0, -1.0, 2.0])
        assert REDUCE_OPS["sum"].fn(v) == pytest.approx(4.0)
        assert REDUCE_OPS["max"].fn(v) == 3.0
        assert REDUCE_OPS["argmin"].fn(v) == 1

    def test_reduce_tree_depth(self):
        assert reduce_tree_depth(16, 16) == 4  # paper: 4 cycles for 16 lanes
        assert reduce_tree_depth(2, 16) == 1
        assert reduce_tree_depth(1, 16) == 0
        assert reduce_tree_depth(12, 16) == 4
        assert reduce_tree_depth(32, 16) == 4  # capped by lanes


class TestIR:
    def _simple_graph(self):
        g = DataflowGraph(name="t")
        inp = g.add("input", name="x", width=4)
        double = g.add(
            "map", preds=[inp], name="double", width=4, chain_ops=1,
            fn=lambda x: 2.0 * x,
        )
        total = g.add(
            "reduce", preds=[double], name="sum", width=4, reduce_op="sum",
            fn=lambda x: np.sum(x, axis=-1, keepdims=True),
        )
        g.add("output", preds=[total], name="y", width=1)
        return g

    def test_execute(self):
        g = self._simple_graph()
        assert g.execute(np.array([1.0, 2.0, 3.0, 4.0]))[0] == 20.0

    def test_topo_order_respects_deps(self):
        g = self._simple_graph()
        order = [n.name for n in g.topo_order()]
        assert order.index("x") < order.index("double") < order.index("sum")

    def test_cycle_detected(self):
        g = DataflowGraph(name="cycle")
        a = g.add("map", name="a", width=1, chain_ops=1, fn=lambda x: x)
        b = g.add("map", preds=[a], name="b", width=1, chain_ops=1, fn=lambda x: x)
        a.preds.append(b.node_id)
        with pytest.raises(ValueError):
            g.topo_order()

    def test_gather_concatenates(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=2)
        left = g.add("map", preds=[inp], name="l", width=1, chain_ops=1,
                     fn=lambda x: x[..., :1])
        right = g.add("map", preds=[inp], name="r", width=1, chain_ops=1,
                      fn=lambda x: x[..., 1:] * 10)
        merged = g.add("gather", preds=[left, right], name="m", width=2)
        g.add("output", preds=[merged], name="y", width=2)
        out = g.execute(np.array([1.0, 2.0]))
        assert out.tolist() == [1.0, 20.0]

    def test_missing_semantics_raises(self):
        g = DataflowGraph(name="bad")
        inp = g.add("input", name="x", width=1)
        g.add("map", preds=[inp], name="nofn", width=1, chain_ops=1)
        with pytest.raises(ValueError):
            g.execute(np.array([1.0]))

    def test_no_output_raises(self):
        g = DataflowGraph(name="noout")
        g.add("input", name="x", width=1)
        with pytest.raises(ValueError):
            g.execute(np.array([1.0]))

    def test_unknown_kind_rejected(self):
        g = DataflowGraph(name="k")
        with pytest.raises(ValueError):
            g.add("transmogrify", name="z")

    def test_temporal_state_iteration(self):
        """State-carrying nodes see the iteration index and persist values."""
        g = DataflowGraph(name="acc", temporal_iterations=3)
        inp = g.add("input", name="x", width=1)

        def accumulate(x, state):
            state["acc"] = state.get("acc", 0.0) + x + state["iteration"]
            return state["acc"]

        accumulate.wants_state = True
        node = g.add("map", preds=[inp], name="acc", width=1, chain_ops=1, fn=accumulate)
        g.add("output", preds=[node], name="y", width=1)
        # iterations: acc = (1+0) + (1+1) + (1+2) = 6
        assert g.execute(np.array([1.0]))[0] == 6.0
