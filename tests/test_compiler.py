"""Tests for the compiler: allocation, timing, unrolling, place-and-route.

The latency assertions pin the paper's Table 6 anchors — the cost model is
calibrated, so these are regression tests on published numbers.
"""

import pytest

from repro.compiler import (
    BudgetError,
    GridSpec,
    compile_graph,
    graph_resources,
    node_cost,
    place_and_route,
    unroll_sweep,
)
from repro.hw.params import CUGeometry
from repro.mapreduce import (
    DataflowGraph,
    activation_graph,
    conv1d_graph,
    inner_product_graph,
)
from repro.mapreduce.ir import Node


def _node(kind, **kw):
    return Node(node_id=0, kind=kind, **kw)


def _mu_heavy(weight_values=16384 * 40):
    """One 16-wide dot over a weight bank of ``weight_values`` values."""
    g = DataflowGraph(name="mu-heavy")
    inp = g.add("input", name="x", width=16)
    bank = g.add("const", name="w", weight_values=weight_values)
    dot = g.add("dot", preds=[inp, bank], name="d", parallel=1, width=16,
                chain_ops=1, reduce_op="sum", fn=lambda x: x[..., :1])
    g.add("output", preds=[dot], name="y", width=1)
    return g


class TestNodeCost:
    def test_dot_single_cu(self):
        cost = node_cost(_node("dot", parallel=1, width=16, chain_ops=1, reduce_op="sum"))
        assert cost.n_cu == 1
        assert cost.cycles == 5  # 1 map + 4 reduce (paper, Section 5.1.3)

    def test_dot_lane_packing(self):
        """Two 8-wide instances share one 16-lane CU."""
        cost = node_cost(_node("dot", parallel=16, width=8, chain_ops=1, reduce_op="sum"))
        assert cost.n_cu == 8

    def test_dot_partials_merge(self):
        cost = node_cost(_node("dot", parallel=1, width=37, chain_ops=1, reduce_op="sum"))
        assert cost.n_cu == 4  # 3 partials + 1 merge
        assert cost.hops == 2

    def test_map_chain_splitting(self):
        """Chains longer than the stage count split across CUs in series."""
        for chain, expected in [(1, 1), (4, 1), (5, 2), (14, 4), (26, 7)]:
            cost = node_cost(_node("map", width=16, chain_ops=chain))
            assert cost.n_cu == expected, chain

    def test_map_wide_vector(self):
        cost = node_cost(_node("map", width=64, chain_ops=1))
        assert cost.n_cu == 4

    def test_small_const_free(self):
        cost = node_cost(_node("const", weight_values=16))
        assert cost.n_cu == 0
        assert cost.n_mu == 0

    def test_large_const_uses_mus(self):
        cost = node_cost(_node("const", weight_values=20000))
        assert cost.n_mu == 2  # 16384 values per MU

    def test_lut_uses_mu(self):
        cost = node_cost(_node("lut", width=16, weight_values=1024))
        assert cost.n_mu == 1
        assert cost.n_cu == 0

    def test_input_output_free(self):
        assert node_cost(_node("input", width=16)).n_cu == 0
        assert node_cost(_node("output", width=16)).n_cu == 0

    def test_reduce_wide(self):
        narrow = node_cost(_node("reduce", width=8, reduce_op="sum"))
        wide = node_cost(_node("reduce", width=64, reduce_op="sum"))
        assert wide.n_cu > narrow.n_cu
        assert wide.cycles > narrow.cycles


class TestTable6Anchors:
    """Latency/area regression against the paper's microbenchmarks."""

    @pytest.mark.parametrize(
        "builder,paper_ns,paper_mm2,tol_ns",
        [
            (lambda: inner_product_graph(16), 23, 0.04, 1),
            (lambda: activation_graph("relu"), 22, 0.04, 1),
            (lambda: activation_graph("leaky_relu"), 22, 0.04, 1),
            (lambda: activation_graph("tanh_exp"), 69, 0.26, 4),
            (lambda: activation_graph("sigmoid_exp"), 73, 0.31, 4),
            (lambda: activation_graph("tanh_pw"), 38, 0.13, 4),
            (lambda: activation_graph("sigmoid_pw"), 46, 0.17, 4),
            (lambda: activation_graph("act_lut"), 36, 0.12, 2),
        ],
    )
    def test_microbenchmark(self, builder, paper_ns, paper_mm2, tol_ns):
        design = compile_graph(builder())
        assert design.latency_ns == pytest.approx(paper_ns, abs=tol_ns)
        assert design.area_mm2 == pytest.approx(paper_mm2, rel=0.15)

    def test_all_run_at_line_rate(self):
        for name in ("relu", "tanh_exp", "sigmoid_pw", "act_lut"):
            assert compile_graph(activation_graph(name)).line_rate_fraction == 1.0


class TestUnrolling:
    def test_table7_line_rate_fractions(self):
        points = unroll_sweep(lambda u: conv1d_graph(unroll=u))
        assert [p.line_rate_fraction for p in points] == [0.125, 0.25, 0.5, 1.0]

    def test_table7_area_scales_linearly(self):
        points = unroll_sweep(lambda u: conv1d_graph(unroll=u))
        areas = [p.area_mm2 for p in points]
        assert areas == sorted(areas)
        # The 8x unroll costs ~7x the 1x area (fixed gather amortizes).
        assert 5.0 < areas[-1] / areas[0] < 8.5


class TestFolding:
    def test_fold_reduces_cu_and_rate(self):
        from repro.mapreduce import lstm_graph
        from repro.ml import indigo_lstm

        graph = lstm_graph(indigo_lstm(seed=0))
        unlimited = compile_graph(graph)
        folded = compile_graph(graph, cu_budget=90, mu_budget=30)
        assert unlimited.n_cu > 90
        assert folded.n_cu <= 90
        assert folded.fold_factor > 1
        assert folded.initiation_interval > unlimited.initiation_interval

    def test_mu_overflow_raises(self):
        with pytest.raises(ValueError):
            compile_graph(_mu_heavy(), cu_budget=90, mu_budget=30)


class TestBudgetSymmetry:
    """MU overflow raises a typed error; CU overflow folds."""

    @staticmethod
    def _cu_heavy():
        g = DataflowGraph(name="cu-heavy")
        inp = g.add("input", name="x", width=4)
        m = g.add("map", preds=[inp], name="wide", width=4, chain_ops=1,
                  parallel=400, fn=lambda x: x)
        g.add("output", preds=[m], name="y", width=4)
        return g

    def test_mu_overflow_error_fields(self):
        with pytest.raises(BudgetError) as excinfo:
            compile_graph(_mu_heavy(), cu_budget=90, mu_budget=30)
        err = excinfo.value
        assert err.graph_name == "mu-heavy"
        assert err.needed == 40
        assert err.budget == 30
        assert "40 MUs" in str(err) and "compression" in str(err)

    def test_cu_overflow_folds_by_default(self):
        design = compile_graph(self._cu_heavy(), cu_budget=90)
        assert design.fold_factor > 1
        assert design.n_cu <= 90

    def test_budget_error_is_value_error(self):
        assert issubclass(BudgetError, ValueError)


class TestCriticalPath:
    def test_includes_phv_boundary(self):
        g = DataflowGraph(name="empty-ish")
        inp = g.add("input", name="x", width=16)
        g.add("output", preds=[inp], name="y", width=16)
        # 4 (in) + 5 (out hop) + 4 (out) = 13 cycles minimum transit.
        assert compile_graph(g).latency_cycles == 13

    def test_const_serializes_with_data(self):
        g1 = DataflowGraph(name="no-mu")
        inp = g1.add("input", name="x", width=16)
        d1 = g1.add("dot", preds=[inp], name="d", parallel=1, width=16,
                    chain_ops=1, reduce_op="sum", fn=None)
        g1.add("output", preds=[d1], name="y", width=1)

        g2 = DataflowGraph(name="mu")
        inp2 = g2.add("input", name="x", width=16)
        bank = g2.add("const", name="w", weight_values=5000)  # needs an MU
        d2 = g2.add("dot", preds=[inp2, bank], name="d", parallel=1, width=16,
                    chain_ops=1, reduce_op="sum", fn=None)
        g2.add("output", preds=[d2], name="y", width=1)
        assert compile_graph(g2).latency_cycles > compile_graph(g1).latency_cycles

    def test_geometry_affects_latency(self):
        g = activation_graph("tanh_exp")
        shallow = compile_graph(g, CUGeometry(16, 2))
        deep = compile_graph(g, CUGeometry(16, 6))
        # Fewer stages -> more CUs in series -> more hops -> more latency.
        assert shallow.latency_cycles > deep.latency_cycles


class TestPlaceRoute:
    def test_grid_composition(self):
        grid = GridSpec()
        assert len(grid.tiles("cu")) == 90
        assert len(grid.tiles("mu")) == 30

    def test_placement_fits_anomaly_dnn(self, quantized_dnn):
        from repro.mapreduce import dnn_graph

        placement = place_and_route(dnn_graph(quantized_dnn))
        resources = graph_resources(dnn_graph(quantized_dnn))
        assert placement.n_tiles_used == resources.n_cu + resources.n_mu
        assert placement.fold_factor == 1

    def test_routes_exist_and_are_paths(self, quantized_dnn):
        from repro.mapreduce import dnn_graph

        placement = place_and_route(dnn_graph(quantized_dnn))
        assert placement.routes
        for path in placement.routes:
            for a, b in zip(path, path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1  # mesh steps

    def test_oversized_graph_folds(self):
        from repro.mapreduce import lstm_graph
        from repro.ml import indigo_lstm

        placement = place_and_route(lstm_graph(indigo_lstm(seed=0)))
        assert placement.fold_factor > 1
        assert placement.n_tiles_used <= 120

    def test_mu_overflow_is_the_compilers_budget_error(self):
        """Weights the grid cannot hold fail with compile_graph's typed
        error: 600,000 values need 37 MUs of 16,384, and the grid has 30."""
        with pytest.raises(BudgetError) as excinfo:
            place_and_route(_mu_heavy(600_000))
        err = excinfo.value
        assert (err.needed, err.budget) == (37, 30)

    def test_locality_heuristic(self, quantized_dnn):
        """Average route length should be far below the grid diameter."""
        from repro.mapreduce import dnn_graph

        placement = place_and_route(dnn_graph(quantized_dnn))
        total_hops = sum(max(0, len(path) - 1) for path in placement.routes)
        mean_hops = total_hops / len(placement.routes)
        assert mean_hops < 11  # grid diameter is 20
