"""Tests for the baselines: accelerators (Table 2), MAT-only ML, rules vs weights."""

import numpy as np
import pytest

from repro.baselines import (
    ACCELERATORS,
    CPU_XEON,
    GPU_T4,
    TPU_V2,
    BinarizedDNN,
    iisy_mat_cost,
    n2net_mat_cost,
    taurus_iso_area_mats,
    weights_vs_rules_bytes,
)
from repro.datasets import dnn_feature_matrix
from repro.ml import f1_score


class TestAccelerators:
    """Table 2: unbatched inference latency on control-plane hardware."""

    @pytest.mark.parametrize(
        "model,paper_ms",
        [(CPU_XEON, 0.67), (GPU_T4, 1.15), (TPU_V2, 3.51)],
    )
    def test_batch1_latency(self, model, paper_ms):
        assert model.latency_ms(1) == pytest.approx(paper_ms, rel=0.02)

    def test_cpu_fastest_unbatched(self):
        """The paper's point: a plain CPU wins at batch 1."""
        assert CPU_XEON.latency_ms(1) < GPU_T4.latency_ms(1) < TPU_V2.latency_ms(1)

    def test_batching_amortizes(self):
        for model in ACCELERATORS.values():
            assert model.per_item_ms(256) < model.per_item_ms(1)

    def test_first_item_pays_full_batch(self):
        """The batch's first element "must wait for the entire batch to
        finish" (Section 5.2.2): it sees the whole batch's latency."""
        assert GPU_T4.latency_ms(256) > GPU_T4.latency_ms(1)

    def test_all_slower_than_taurus_by_orders_of_magnitude(self):
        taurus_ms = 221e-6  # 221 ns
        for model in ACCELERATORS.values():
            assert model.latency_ms(1) / taurus_ms > 1000

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            CPU_XEON.latency_ms(0)


class TestMATOnlyCosts:
    def test_n2net_anomaly_dnn_cost(self):
        """4-layer BNN needs 48 MATs (Section 5.1.4)."""
        assert n2net_mat_cost(4).n_mats == 48

    def test_iisy_costs(self):
        assert iisy_mat_cost("svm").n_mats == 8
        assert iisy_mat_cost("kmeans").n_mats == 2

    def test_iisy_unknown_model(self):
        with pytest.raises(ValueError):
            iisy_mat_cost("transformer")

    def test_iso_area_mats(self):
        """One block displaces ~3 MATs (Section 5.1.1)."""
        assert taurus_iso_area_mats() == pytest.approx(2.5, abs=0.6)

    def test_taurus_iso_area_much_cheaper(self):
        """Taurus's block ~ 3 MATs vs N2Net's 48 for the same DNN."""
        taurus_mats = taurus_iso_area_mats()
        assert taurus_mats < 3.5
        assert n2net_mat_cost(4).n_mats / taurus_mats > 10

    def test_mat_cost_area(self):
        cost = iisy_mat_cost("svm")
        assert cost.area_mm2() == pytest.approx(8 * 1.953, rel=0.01)


class TestBinarizedDNN:
    def test_runs_and_underperforms_fix8(self, trained_dnn, quantized_dnn, train_test_split):
        """BNNs work but are imprecise (the paper's critique)."""
        train, test = train_test_split
        x = dnn_feature_matrix(test)
        bnn = BinarizedDNN(trained_dnn)
        bnn.calibrate(dnn_feature_matrix(train), train.labels)
        bnn_f1 = f1_score(test.labels, bnn.predict(x))
        fix8_pred = (quantized_dnn(x).reshape(-1) >= 0.5).astype(np.int64)
        fix8_f1 = f1_score(test.labels, fix8_pred)
        assert bnn_f1 < fix8_f1
        assert bnn_f1 > 0.3  # it does *something*

    def test_mat_cost_matches_layers(self, trained_dnn):
        bnn = BinarizedDNN(trained_dnn)
        assert n2net_mat_cost(len(bnn.signs)).n_mats == 12 * 4

    def test_outputs_binary(self, trained_dnn):
        bnn = BinarizedDNN(trained_dnn)
        preds = bnn.predict(np.random.default_rng(0).normal(size=(20, 6)))
        assert set(np.unique(preds)) <= {0, 1}


class TestWeightsVsRules:
    def test_paper_ratio_magnitude(self):
        """Weights beat rules by ~3 orders of magnitude (Section 3)."""
        weight_bytes = 187  # anomaly DNN at 8 bits
        __, rules, ratio = weights_vs_rules_bytes(weight_bytes, n_distinct_inputs=12_000)
        assert rules > 500_000
        assert ratio > 1000

    def test_invalid(self):
        with pytest.raises(ValueError):
            weights_vs_rules_bytes(0, 10)
