"""Tests for the from-scratch ML models: Dense/DNN, SVM, KMeans, LSTM."""

import numpy as np
import pytest

from repro.datasets import generate_congestion_traces, iot_cluster_dataset
from repro.ml import (
    SGD,
    Adam,
    Dense,
    DNN,
    KMeans,
    LSTM,
    RBFKernelSVM,
    accuracy,
    anomaly_detection_dnn,
    indigo_lstm,
    iot_classifier_dnn,
)


def _blobs(n=400, seed=0, sep=3.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [rng.normal(-sep / 2, 1.0, size=(half, 2)), rng.normal(sep / 2, 1.0, size=(n - half, 2))]
    )
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    order = rng.permutation(n)
    return x[order], y[order]


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3)
        assert layer.forward(np.zeros((5, 4))).shape == (5, 3)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_gradient_check(self):
        """Analytic gradients match central finite differences."""
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, activation="tanh", rng=rng)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x, train=True)
        grad_out = rng.normal(size=out.shape)
        __, grad_w, __ = layer.backward(grad_out)
        eps = 1e-6
        for idx in [(0, 0), (1, 2)]:
            layer.weights[idx] += eps
            up = float(np.sum(layer.forward(x) * grad_out))
            layer.weights[idx] -= 2 * eps
            down = float(np.sum(layer.forward(x) * grad_out))
            layer.weights[idx] += eps
            numeric = (up - down) / (2 * eps)
            assert grad_w[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))


class TestDNN:
    def test_learns_blobs(self):
        x, y = _blobs()
        model = DNN([2, 8, 1], output="sigmoid", seed=0)
        model.fit(x, y, epochs=20, lr=0.1)
        assert accuracy(y, model.predict(x)) > 0.95

    def test_learns_multiclass(self):
        rng = np.random.default_rng(2)
        centers = np.array([[0, 3], [3, -3], [-3, -3]])
        y = rng.integers(0, 3, size=600)
        x = centers[y] + rng.normal(size=(600, 2))
        model = DNN([2, 16, 3], output="softmax", seed=1)
        model.fit(x, y, epochs=25, lr=0.1)
        assert accuracy(y, model.predict(x)) > 0.9

    def test_loss_decreases(self):
        x, y = _blobs()
        model = DNN([2, 6, 1], output="sigmoid", seed=0)
        losses = model.fit(x, y, epochs=15, lr=0.05)
        assert losses[-1] < losses[0]

    def test_sigmoid_head_needs_one_unit(self):
        with pytest.raises(ValueError):
            DNN([4, 2], output="sigmoid")

    def test_paper_architectures(self):
        assert anomaly_detection_dnn().layer_sizes == [6, 12, 6, 3, 1]
        assert iot_classifier_dnn((4, 10, 2)).layer_sizes == [4, 10, 2]
        assert anomaly_detection_dnn().n_params == 187


class TestSVM:
    def test_learns_blobs(self):
        x, y = _blobs(300, sep=4.0)
        svm = RBFKernelSVM(budget=32, epochs=3, seed=0).fit(x, y)
        assert accuracy(y, svm.predict(x)) > 0.9

    def test_budget_respected(self):
        x, y = _blobs(300)
        svm = RBFKernelSVM(budget=10, epochs=2, seed=0).fit(x, y)
        assert len(svm.support_vectors) <= 10

    def test_nonlinear_boundary(self):
        """RBF kernel separates concentric rings (linear cannot)."""
        rng = np.random.default_rng(4)
        r_inner = rng.uniform(0, 1, 200)
        r_outer = rng.uniform(2.0, 3.0, 200)
        theta = rng.uniform(0, 2 * np.pi, 400)
        r = np.concatenate([r_inner, r_outer])
        x = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        y = np.concatenate([np.zeros(200, dtype=int), np.ones(200, dtype=int)])
        # Scaled by 1 / sqrt(gamma): the kernel of gamma = 1 on the rings.
        x /= np.sqrt(RBFKernelSVM.gamma)
        svm = RBFKernelSVM(budget=64, epochs=4, seed=0).fit(x, y)
        assert accuracy(y, svm.predict(x)) > 0.85

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RBFKernelSVM().predict(np.zeros((1, 2)))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            RBFKernelSVM().fit(np.zeros((0, 2)), np.zeros(0))

    def test_weight_bytes(self, trained_svm):
        """The lowering's weight bank holds the SV set and one coefficient
        per support vector, a byte each at fix8."""
        from repro.mapreduce import svm_graph

        bank = next(node for node in svm_graph(trained_svm).nodes.values()
                    if node.name == "sv_bank")
        assert bank.weight_values == trained_svm.support_vectors.size + trained_svm.alphas.size


class TestKMeans:
    def test_recovers_clusters(self):
        x, y = iot_cluster_dataset(900, n_classes=5, seed=1, spread=0.6)
        km = KMeans(5, seed=1).fit(x)
        # Map clusters to majority labels and check purity.
        assignments = km.predict(x)
        purity = 0
        for c in range(5):
            members = y[assignments == c]
            if len(members):
                purity += np.bincount(members).max()
        assert purity / len(y) > 0.9

    def test_predict_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(2).predict(np.zeros((1, 2)))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            KMeans(10).fit(np.zeros((3, 2)))

    def test_inertia_better_than_random_assignment(self):
        x, __ = iot_cluster_dataset(400, seed=2)
        km = KMeans(5, seed=2).fit(x)
        random_centroids = x[:5]
        km_random = KMeans(5, seed=2)
        km_random.centroids = random_centroids

        def inertia(model):
            return np.sum((x - model.centroids[model.predict(x)]) ** 2)

        assert inertia(km) <= inertia(km_random)

    def test_converges(self):
        x, __ = iot_cluster_dataset(400, seed=3)
        km = KMeans(5, seed=3).fit(x)
        assert km.n_iter_ < 100  # the iteration cap


class TestLSTM:
    def test_shapes(self):
        lstm = LSTM(input_size=3, hidden_size=8, n_actions=4, seed=0)
        seqs = np.zeros((5, 7, 3))
        assert lstm.forward(seqs).shape == (5, 4)
        assert lstm.predict(seqs).shape == (5,)

    def test_probabilities_normalized(self):
        lstm = LSTM(3, 8, 4, seed=0)
        probs = lstm.forward(np.random.default_rng(0).normal(size=(6, 5, 3)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_training_reduces_loss(self):
        seqs, actions = generate_congestion_traces(300, seed=5)
        lstm = indigo_lstm(input_size=seqs.shape[-1], n_actions=5, seed=0)
        losses = lstm.fit(seqs, actions, epochs=8)
        assert losses[-1] < losses[0]

    def test_beats_chance_on_imitation(self):
        seqs, actions = generate_congestion_traces(800, seed=6)
        cut = 600
        lstm = indigo_lstm(input_size=seqs.shape[-1], n_actions=5, seed=0)
        lstm.fit(seqs[:cut], actions[:cut], epochs=12)
        acc = float(np.mean(lstm.predict(seqs[cut:]) == actions[cut:]))
        chance = float(np.mean(actions[cut:] == np.bincount(actions[:cut]).argmax()))
        assert acc > max(0.4, chance - 0.05)

    def test_paper_configuration(self):
        lstm = indigo_lstm()
        assert lstm.hidden_size == 32

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            LSTM(0, 4, 2)


class TestOptimizers:
    def test_sgd_moves_against_gradient(self):
        param = np.array([1.0])
        SGD(lr=0.1).step(param, np.array([1.0]), key=0)
        assert param[0] == pytest.approx(0.9)

    def test_sgd_momentum_accumulates(self):
        opt = SGD(lr=0.1, momentum=0.9)
        param = np.array([0.0])
        opt.step(param, np.array([1.0]), key=0)
        first_step = abs(param[0])
        opt.step(param, np.array([1.0]), key=0)
        assert abs(param[0]) > 2 * first_step  # momentum compounds

    def test_adam_converges_on_quadratic(self):
        opt = Adam(lr=0.1)
        param = np.array([5.0])
        for __ in range(200):
            opt.begin_step()
            opt.step(param, 2 * param, key=0)
        assert abs(param[0]) < 0.1

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)
