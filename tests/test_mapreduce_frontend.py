"""Tests for model -> dataflow-graph lowering (functional fidelity)."""

import numpy as np
import pytest

from repro.datasets import dnn_feature_matrix, generate_congestion_traces, svm_feature_matrix
from repro.mapreduce import (
    activation_graph,
    conv1d_graph,
    dnn_graph,
    inner_product_graph,
    kmeans_graph,
    lstm_graph,
    svm_graph,
)
from repro.ml import indigo_lstm


class TestDNNGraph:
    def test_bit_exact_with_quantized_model(self, quantized_dnn, train_test_split):
        """Graph execution (exact activations) == QuantizedModel, bitwise."""
        __, test = train_test_split
        graph = dnn_graph(quantized_dnn, exact_activations=True)
        x = dnn_feature_matrix(test)[:64]
        for row in x:
            via_graph = float(graph.execute(row)[0])
            via_model = float(quantized_dnn(row).reshape(-1)[0])
            assert via_graph == via_model

    def test_hw_activations_close(self, quantized_dnn, train_test_split):
        """Piecewise activations barely move the decision boundary."""
        __, test = train_test_split
        graph = dnn_graph(quantized_dnn)  # hardware approximations
        x = dnn_feature_matrix(test)[:256]
        agree = 0
        for row in x:
            hw = float(graph.execute(row)[0]) >= 0.5
            exact = float(quantized_dnn(row).reshape(-1)[0]) >= 0.5
            agree += hw == exact
        assert agree / len(x) > 0.95

    def test_structure(self, quantized_dnn):
        graph = dnn_graph(quantized_dnn)
        kinds = [n.kind for n in graph.topo_order()]
        assert kinds.count("dot") == 4      # 4 weight layers
        assert kinds.count("const") >= 4
        assert kinds[-1] == "output" or "output" in kinds

    def test_softmax_head_lowered_to_argmax(self):
        from repro.fixpoint import quantize_model
        from repro.ml import iot_classifier_dnn
        from repro.datasets import iot_binary_dataset

        x, y = iot_binary_dataset(600, seed=0)
        model = iot_classifier_dnn((4, 10, 2), seed=0)
        model.fit(x, y, epochs=5)
        q = quantize_model(model, x[:128])
        graph = dnn_graph(q)
        # Linear head -> no activation map after the last dot/gather.
        out_width = graph.outputs()[0].width
        assert out_width == 2


class TestSVMGraph:
    def test_decision_agreement(self, trained_svm, train_test_split):
        __, test = train_test_split
        graph = svm_graph(trained_svm)
        x = svm_feature_matrix(test)[:128]
        agree = 0
        for row in x:
            graph_pred = float(graph.execute(row)[0]) >= 0.0
            model_pred = bool(trained_svm.predict(row[None, :])[0])
            agree += graph_pred == model_pred
        assert agree / len(x) > 0.9

    def test_unfitted_rejected(self):
        from repro.ml import RBFKernelSVM

        with pytest.raises(ValueError):
            svm_graph(RBFKernelSVM())

    def test_has_lut_node(self, trained_svm):
        graph = svm_graph(trained_svm)
        assert any(n.kind == "lut" for n in graph.nodes.values())


class TestKMeansGraph:
    def test_cluster_agreement(self, trained_kmeans):
        from repro.datasets import iot_cluster_dataset

        graph = kmeans_graph(trained_kmeans)
        x, __ = iot_cluster_dataset(200, seed=9)
        agree = 0
        for row in x:
            graph_cluster = int(graph.execute(row)[0])
            model_cluster = int(trained_kmeans.predict(row[None, :])[0])
            agree += graph_cluster == model_cluster
        assert agree / len(x) > 0.95

    def test_unfitted_rejected(self):
        from repro.ml import KMeans

        with pytest.raises(ValueError):
            kmeans_graph(KMeans(3))


class TestLSTMGraph:
    def test_action_agreement(self):
        seqs, actions = generate_congestion_traces(250, seed=4)
        lstm = indigo_lstm(input_size=seqs.shape[-1], n_actions=5, seed=0)
        lstm.fit(seqs[:200], actions[:200], epochs=8)
        graph = lstm_graph(lstm, window_steps=seqs.shape[1])
        agree = 0
        n = 40
        for seq in seqs[200 : 200 + n]:
            graph_action = int(graph.execute(seq.reshape(-1), state={})[0])
            model_action = int(lstm.predict(seq[None])[0])
            agree += graph_action == model_action
        assert agree / n > 0.7  # fix8 + piecewise gates shift some decisions

    def test_temporal_iterations(self):
        lstm = indigo_lstm(seed=0)
        graph = lstm_graph(lstm, window_steps=8)
        assert graph.temporal_iterations == 8

    def test_head_is_epilogue(self):
        lstm = indigo_lstm(seed=0)
        graph = lstm_graph(lstm)
        epilogue_kinds = {n.kind for n in graph.nodes.values() if n.epilogue}
        assert "dot" in epilogue_kinds
        assert "reduce" in epilogue_kinds


class TestMicrobenchGraphs:
    def test_inner_product_executes(self):
        graph = inner_product_graph(16)
        out = graph.execute(np.ones(16))
        assert out.shape == (1,)

    def test_activation_graphs_execute(self):
        for name in ("relu", "tanh_pw", "sigmoid_exp", "act_lut"):
            graph = activation_graph(name)
            out = graph.execute(np.linspace(-2, 2, 16))
            assert out.shape == (16,)

    def test_relu_graph_semantics(self):
        graph = activation_graph("relu")
        out = graph.execute(np.array([-1.0] * 8 + [1.0] * 8))
        assert np.all(out[:8] == 0.0)
        assert np.all(out[8:] > 0.0)

    def test_conv1d_full_unroll_matches_numpy(self):
        graph = conv1d_graph(unroll=8)
        x = np.linspace(-1, 1, 9)
        out = graph.execute(x)
        assert out.shape == (8,)

    def test_conv1d_unroll_divides(self):
        with pytest.raises(ValueError):
            conv1d_graph(unroll=3)

    def test_conv1d_initiation_interval(self):
        assert conv1d_graph(unroll=1).initiation_interval == 8
        assert conv1d_graph(unroll=8).initiation_interval == 1
