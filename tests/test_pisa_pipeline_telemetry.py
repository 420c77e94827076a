"""Tests for the integrated pipeline (bypass, decisions)."""

import numpy as np
import pytest

from repro.datasets import DNN_FEATURES
from repro.hw import MapReduceBlock
from repro.mapreduce import dnn_graph
from repro.pisa import (
    DECISION_FLAG,
    DECISION_FORWARD,
    Action,
    MatchActionTable,
    MatchKind,
    Packet,
    TableEntry,
    TaurusPipeline,
    port_bypass,
)


@pytest.fixture(scope="module")
def pipeline(quantized_dnn):
    block = MapReduceBlock(dnn_graph(quantized_dnn))
    ssh_bypass, ssh_bypass_batch = port_bypass(22)
    return TaurusPipeline(
        block=block,
        feature_names=DNN_FEATURES,
        bypass_predicate=ssh_bypass,
        bypass_predicate_batch=ssh_bypass_batch,
    )


def _packet(features, dst_port=80, t=0.0):
    return Packet(
        headers={"protocol": 0, "src_ip": 1, "dst_ip": 2, "src_port": 5555,
                 "dst_port": dst_port, "urgent_flag": 0, "seq": 0},
        payload_len=100,
        arrival_time=t,
        features=np.asarray(features, dtype=np.float64),
    )


class TestPipeline:
    def test_ml_packet_gets_score_and_latency(self, pipeline):
        result = pipeline.process(_packet(np.zeros(6)))
        assert result.ml_score is not None
        assert not result.bypassed
        assert result.latency_ns > 1000.0  # base + fabric

    def test_bypass_packet_unaffected(self, pipeline):
        result = pipeline.process(_packet(np.zeros(6), dst_port=22))
        assert result.bypassed
        assert result.ml_score is None
        assert result.latency_ns == 1000.0  # no added latency (Fig. 6)

    def test_bypass_cheaper_than_ml(self, pipeline):
        ml = pipeline.process(_packet(np.zeros(6)))
        byp = pipeline.process(_packet(np.zeros(6), dst_port=22))
        assert ml.latency_ns - byp.latency_ns == pytest.approx(
            pipeline.block.latency_ns, abs=1.0
        )

    def test_decisions_cover_score_range(self, pipeline, train_test_split):
        from repro.datasets import dnn_feature_matrix

        __, test = train_test_split
        x = dnn_feature_matrix(test)[:64]
        decisions = {pipeline.process(_packet(row)).decision for row in x}
        assert DECISION_FLAG in decisions
        assert DECISION_FORWARD in decisions

    def test_postprocess_safety_override(self, quantized_dnn):
        """Postprocessing rules bound the ML decision (Section 3.2)."""
        block = MapReduceBlock(dnn_graph(quantized_dnn))
        pipe = TaurusPipeline(block=block, feature_names=DNN_FEATURES)
        safety = MatchActionTable(
            name="safety", key_fields=("dst_port",), kind=MatchKind.EXACT
        )
        # Never touch DNS traffic regardless of the model's opinion.
        safety.install(
            TableEntry({"dst_port": 53}, Action.set_const("allow", "decision", DECISION_FORWARD))
        )
        pipe.install_postprocess(safety)
        anomalous_looking = np.full(6, 3.0)
        result = pipe.process(_packet(anomalous_looking, dst_port=53))
        assert result.decision == DECISION_FORWARD

    def test_stats_accumulate(self, quantized_dnn):
        block = MapReduceBlock(dnn_graph(quantized_dnn))
        ssh_bypass, ssh_bypass_batch = port_bypass(22)
        pipe = TaurusPipeline(
            block=block, feature_names=DNN_FEATURES,
            bypass_predicate=ssh_bypass,
            bypass_predicate_batch=ssh_bypass_batch,
        )
        pipe.process(_packet(np.zeros(6)))
        pipe.process(_packet(np.zeros(6), dst_port=22))
        assert pipe.stats["ml"] == 1
        assert pipe.stats["bypass"] == 1

    def test_process_trace_orders_by_time(self, pipeline):
        packets = [_packet(np.zeros(6), t=1.0), _packet(np.zeros(6), t=0.5)]
        results = pipeline.process_trace(packets)
        assert results[0].packet.arrival_time == 0.5

    def test_no_block_means_all_bypass(self):
        pipe = TaurusPipeline(block=None, feature_names=DNN_FEATURES)
        result = pipe.process(_packet(np.zeros(6)))
        assert result.bypassed
