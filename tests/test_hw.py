"""Tests for the hardware models: area/power anchors, the block, the ASIC."""

import numpy as np
import pytest

from repro.hw import (
    CUGeometry,
    MapReduceBlock,
    SwitchChipParams,
    TaurusChip,
    cu_area_mm2,
    fu_area_um2,
    fu_power_uw,
    grid_area_mm2,
    grid_composition,
    mu_area_mm2,
)
from repro.mapreduce import inner_product_graph


class TestTable4Anchors:
    """Per-FU area/power by precision — exact paper values (Table 4)."""

    @pytest.mark.parametrize(
        "precision,area,power",
        [("fix8", 670, 456), ("fix16", 1338, 887), ("fix32", 2949, 2341)],
    )
    def test_per_fu(self, precision, area, power):
        geom = CUGeometry(16, 4, precision)
        assert fu_area_um2(geom) == pytest.approx(area, rel=0.01)
        assert fu_power_uw(geom) == pytest.approx(power, rel=0.01)

    def test_precision_scaling_factors(self):
        a8 = fu_area_um2(CUGeometry(16, 4, "fix8"))
        a16 = fu_area_um2(CUGeometry(16, 4, "fix16"))
        a32 = fu_area_um2(CUGeometry(16, 4, "fix32"))
        assert a16 / a8 == pytest.approx(2.0, rel=0.05)
        assert a32 / a8 == pytest.approx(4.4, rel=0.05)


class TestFig9Scaling:
    def test_area_decreases_with_lanes(self):
        areas = [fu_area_um2(CUGeometry(l, 4)) for l in (4, 8, 16, 32)]
        assert areas == sorted(areas, reverse=True)

    def test_power_decreases_with_lanes(self):
        powers = [fu_power_uw(CUGeometry(l, 4)) for l in (4, 8, 16, 32)]
        assert powers == sorted(powers, reverse=True)

    def test_fig9_range(self):
        """4-lane point near 1.5k um^2, 32-lane near 0.5k (Fig. 9a)."""
        assert 1300 < fu_area_um2(CUGeometry(4, 4)) < 1700
        assert 450 < fu_area_um2(CUGeometry(32, 4)) < 600


class TestBlockAnchors:
    def test_cu_area(self):
        assert cu_area_mm2() == pytest.approx(0.044, abs=0.001)

    def test_mu_area(self):
        assert mu_area_mm2() == pytest.approx(0.029, abs=0.001)

    def test_grid_area(self):
        assert grid_area_mm2() == pytest.approx(4.8, abs=0.1)

    def test_grid_composition(self):
        assert grid_composition() == (90, 30)

    def test_area_overhead_percent(self):
        chip = TaurusChip()
        report = chip.grid_overheads()
        assert report.area_percent == pytest.approx(3.8, abs=0.15)

    def test_power_overhead_percent(self):
        chip = TaurusChip()
        report = chip.grid_overheads()
        assert report.power_percent == pytest.approx(2.8, abs=0.2)

    def test_die_growth(self):
        assert TaurusChip().added_die_area_percent() == pytest.approx(3.8, abs=0.2)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CUGeometry(0, 4)
        with pytest.raises(ValueError):
            CUGeometry(16, 4, "fix64")


class TestMapReduceBlock:
    def test_process_returns_latency(self):
        block = MapReduceBlock(inner_product_graph(16))
        result = block.process(np.ones(16))
        assert result.latency_ns == pytest.approx(23, abs=1)

    def test_line_rate_no_stall(self):
        block = MapReduceBlock(inner_product_graph(16))
        first = block.process(np.ones(16))
        second = block.process(np.ones(16))
        assert first.latency_ns == second.latency_ns == block.design.latency_ns
        assert block._next_issue_cycle == 2  # II = 1: one issue slot each

    def test_folded_block_stalls(self):
        """II = 8: each packet holds the issue slot for 8 cycles, so the next
        one waits behind it and the pair drains 8 cycles later."""
        from repro.hw.params import CLOCK_GHZ
        from repro.mapreduce import conv1d_graph
        from repro.runtime.sharded import drain_ns

        block = MapReduceBlock(conv1d_graph(unroll=1))
        block.process(np.ones(9))
        block.process(np.ones(9))
        assert block._next_issue_cycle == 16
        assert drain_ns([block], [0]) == pytest.approx(
            (block.design.latency_cycles + 8) / CLOCK_GHZ
        )

    def test_reconfigure_swaps_program(self):
        block = MapReduceBlock(inner_product_graph(16))
        old_latency = block.latency_ns
        from repro.mapreduce import activation_graph

        block.reconfigure(activation_graph("tanh_exp"))
        assert block.latency_ns != old_latency

    def test_run_batch_matches_scalar(self):
        block = MapReduceBlock(inner_product_graph(16))
        feats = np.linspace(-1, 1, 5 * 16).reshape(5, 16)
        result = block.run_batch(feats)
        scalar = np.stack([block.graph.execute(row) for row in feats])
        assert np.array_equal(result.values, scalar)

    def test_run_batch_ii_accounting(self):
        from repro.mapreduce import conv1d_graph
        from repro.hw.params import CLOCK_GHZ
        from repro.runtime.sharded import drain_ns

        block = MapReduceBlock(conv1d_graph(unroll=1))  # II = 8
        result = block.run_batch(np.ones((10, 9)))
        ii = block.design.initiation_interval
        assert len(result.values) == 10
        assert block._next_issue_cycle == 10 * ii
        expected_cycles = block.design.latency_cycles + 9 * ii
        assert drain_ns([block], [0]) == pytest.approx(expected_cycles / CLOCK_GHZ)

    def test_run_batch_advances_issue_clock(self):
        block = MapReduceBlock(inner_product_graph(16))
        block.run_batch(np.ones((7, 16)))
        assert block.packets_processed == 7
        assert block._next_issue_cycle == 7
        block.process(np.ones(16))  # issues behind the batch
        assert block._next_issue_cycle == 8

    def test_run_batch_stalls_behind_earlier_work(self):
        """Work issues contiguously: a batch takes the slots after what the
        block already issued."""
        block = MapReduceBlock(inner_product_graph(16))
        block.process(np.ones(16))
        queued = block.run_batch(np.ones((3, 16)))
        assert queued.latency_ns == block.design.latency_ns
        block.run_batch(np.ones((2, 16)))
        # 1 (process) + 3 (first batch) + 2 slots.
        assert block._next_issue_cycle == 6 * block.design.initiation_interval

    def test_empty_batch_drains_in_zero_ns(self, quantized_dnn):
        """A batch of no packets issues nothing: the issue clock stays put
        and ``drain_ns`` reports 0 ns for it."""
        from repro.hw.params import CLOCK_GHZ
        from repro.mapreduce import dnn_graph
        from repro.runtime.sharded import drain_ns, issue_cycles

        block = MapReduceBlock(dnn_graph(quantized_dnn))
        width = quantized_dnn.layers[0].w_raw.shape[1]
        block.run_batch(np.ones((3, width)))
        before = issue_cycles([block])
        empty = block.run_batch(np.zeros((0, width)))
        assert issue_cycles([block]) == before
        assert drain_ns([block], before) == 0.0 and empty.values.shape[0] == 0
        block.run_batch(np.ones((5, width)))
        ii = block.design.initiation_interval
        assert drain_ns([block], before) == pytest.approx(
            (block.design.latency_cycles + 4 * ii) / CLOCK_GHZ
        )


class TestSwitchChipParams:
    def test_mat_area(self):
        chip = SwitchChipParams()
        # 50% of 500 mm^2 over 128 MATs.
        assert chip.mat_area_mm2 == pytest.approx(1.953, abs=0.01)

    def test_pipeline_shares(self):
        chip = SwitchChipParams()
        assert chip.pipeline_area_mm2 == 125.0
        assert chip.pipeline_power_w == 67.5


@pytest.mark.parametrize("app", ["anomaly-dnn", "indigo-lstm"])
def test_run_batch_split_equals_one_shot(quantized_dnn, app):
    """``run_batch`` over B rows equals the same rows run as consecutive
    pieces on a twin block: the values, each piece's ``latency_ns``, the
    issue clock and ``packets_processed`` — on a fresh block and after an
    accounted ``reconfigure`` from another program."""
    from repro.mapreduce import dnn_graph, lstm_graph
    from repro.ml import indigo_lstm

    lstm = indigo_lstm(seed=4)
    dnn_app = dnn_graph(quantized_dnn), quantized_dnn.layers[0].w_raw.shape[1]
    lstm_app = lstm_graph(lstm, window_steps=8), 8 * lstm.input_size
    (graph, width), (other, other_width) = (
        (dnn_app, lstm_app) if app == "anomaly-dnn" else (lstm_app, dnn_app)
    )
    rng = np.random.default_rng(17)
    rows = 500  # crosses the LSTM kernel's tiles
    feats = rng.normal(0.0, 1.5, size=(rows, width))
    warmup = rng.normal(0.0, 1.5, size=(5, other_width))
    cuts = (1, 64, 166, 333, 499)

    def twin(swapped: bool) -> MapReduceBlock:
        if not swapped:
            return MapReduceBlock(graph)
        block = MapReduceBlock(other)
        block.run_batch(warmup)
        block.reconfigure(graph, account=True)
        return block

    for swapped in (False, True):
        one, split = twin(swapped), twin(swapped)
        assert one._next_issue_cycle == split._next_issue_cycle
        whole = one.run_batch(feats)
        pieces = [
            split.run_batch(feats[lo:hi]) for lo, hi in zip((0, *cuts), (*cuts, rows))
        ]
        assert np.array_equal(whole.values, np.concatenate([p.values for p in pieces]))
        assert all(p.latency_ns == whole.latency_ns for p in pieces)
        assert one._next_issue_cycle == split._next_issue_cycle
        assert one.packets_processed == split.packets_processed
        assert (one.reconfigurations, one.reconfig_cycles) == (
            split.reconfigurations, split.reconfig_cycles
        )
        assert (one.reconfig_cycles > 0) == swapped
