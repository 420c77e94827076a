"""Tests for the synthetic dataset substrates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    DNN_FEATURES,
    expand_to_packets,
    dnn_feature_matrix,
    generate_congestion_traces,
    generate_connections,
    iot_binary_dataset,
    iot_cluster_dataset,
    svm_feature_matrix,
)
from repro.datasets.congestion import oracle_action
from repro.datasets.nslkdd import ATTACK_CLASSES, FEATURE_NAMES, SVM_FEATURES


class TestNSLKDD:
    def test_shapes(self):
        ds = generate_connections(500, seed=0)
        assert ds.features.shape == (500, len(FEATURE_NAMES))
        assert len(ds.labels) == 500
        assert len(ds.attack_types) == 500

    def test_anomaly_fraction(self):
        ds = generate_connections(2000, seed=1)
        assert np.mean(ds.labels) == pytest.approx(0.45, abs=0.02)

    def test_attack_taxonomy(self):
        ds = generate_connections(3000, seed=2)
        present = set(np.unique(ds.attack_types))
        assert present == set(range(len(ATTACK_CLASSES)))

    def test_labels_match_types(self):
        ds = generate_connections(1000, seed=3)
        assert np.array_equal(ds.labels, (ds.attack_types > 0).astype(np.int64))

    def test_deterministic(self):
        a = generate_connections(100, seed=7)
        b = generate_connections(100, seed=7)
        assert np.array_equal(a.features, b.features)

    def test_split(self):
        ds = generate_connections(1000, seed=4)
        train, test = ds.split(0.7, np.random.default_rng(0))
        assert len(train) == 700
        assert len(test) == 300

    def test_split_bounds(self):
        ds = generate_connections(100, seed=5)
        with pytest.raises(ValueError):
            ds.split(1.5, np.random.default_rng(0))

    def test_feature_matrices(self):
        ds = generate_connections(400, seed=6)
        assert dnn_feature_matrix(ds).shape == (400, len(DNN_FEATURES))
        assert svm_feature_matrix(ds).shape == (400, len(SVM_FEATURES))

    def test_features_standardized(self):
        x = dnn_feature_matrix(generate_connections(2000, seed=8))
        assert np.allclose(x.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(x.std(axis=0), 1.0, atol=1e-6)

    def test_dos_separable_from_benign(self):
        """DoS floods must be visibly different (high count/serror)."""
        ds = generate_connections(3000, seed=9)
        dos = ds.features[ds.attack_types == 1]
        benign = ds.features[ds.attack_types == 0]
        count_col = FEATURE_NAMES.index("count")
        assert np.median(dos[:, count_col]) > 5 * np.median(benign[:, count_col])

    def test_u2r_overlaps_benign(self):
        """U2R is near-indistinguishable (the hard class)."""
        ds = generate_connections(5000, seed=10)
        u2r = ds.features[ds.attack_types == 4]
        benign = ds.features[ds.attack_types == 0]
        count_col = FEATURE_NAMES.index("count")
        ratio = np.median(u2r[:, count_col]) / np.median(benign[:, count_col])
        assert 0.5 < ratio < 2.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_connections(0)

    def test_column_lookup(self):
        ds = generate_connections(50, seed=11)
        assert ds.column("duration").shape == (50,)
        with pytest.raises(ValueError):
            ds.column("nonexistent")


class TestPacketExpansion:
    @pytest.fixture(scope="class")
    def trace(self):
        ds = generate_connections(400, seed=1)
        return expand_to_packets(ds, seed=2, max_packets=20000)

    def test_time_ordered(self, trace):
        times = [p.time for p in trace.packets]
        assert times == sorted(times)

    def test_flow_sequencing(self, trace):
        seen: dict[int, int] = {}
        for p in trace.packets:
            expected = seen.get(p.flow_id, 0)
            assert p.seq_in_flow == expected
            seen[p.flow_id] = expected + 1

    def test_labels_propagate(self, trace):
        flows = {f.flow_id: f.label for f in trace.flows}
        for p in trace.packets[:500]:
            assert p.label == flows[p.flow_id]

    def test_sizes_in_mtu_range(self, trace):
        for p in trace.packets[:500]:
            assert 64 <= p.size_bytes <= 1500

    def test_dilation_scales_times(self):
        ds = generate_connections(150, seed=3)
        base = expand_to_packets(ds, seed=4, time_dilation=1.0)
        dilated = expand_to_packets(ds, seed=4, time_dilation=10.0)
        assert dilated.duration == pytest.approx(base.duration * 10.0, rel=1e-6)
        assert dilated.time_dilation == 10.0

    def test_max_packets_cap(self):
        ds = generate_connections(300, seed=5)
        trace = expand_to_packets(ds, seed=6, max_packets=100)
        assert len(trace) == 100

    def test_flows_are_short_lived(self):
        """Flow lifetimes must be << trace duration (the detection-window
        property the Table 8 baseline depends on)."""
        ds = generate_connections(500, seed=7)
        trace = expand_to_packets(ds, seed=8)
        spans = {}
        for p in trace.packets:
            lo, hi = spans.get(p.flow_id, (p.time, p.time))
            spans[p.flow_id] = (min(lo, p.time), max(hi, p.time))
        durations = [hi - lo for lo, hi in spans.values()]
        assert np.median(durations) < trace.duration / 3

    def test_invalid_args(self):
        ds = generate_connections(50, seed=9)
        with pytest.raises(ValueError):
            expand_to_packets(ds, time_dilation=0.5)

    def test_anomalous_fraction_tracks_dataset(self, trace):
        assert 0.2 < trace.columns().labels.mean() < 0.7


class TestIoT:
    def test_binary_shapes(self):
        x, y = iot_binary_dataset(500, seed=0)
        assert x.shape == (500, 4)
        assert set(np.unique(y)) == {0, 1}

    def test_binary_overlap_regime(self):
        """Classes must overlap enough that accuracy lands near 67%."""
        from repro.ml import DNN, accuracy

        x, y = iot_binary_dataset(4000, seed=1)
        model = DNN([4, 10, 2], output="softmax", seed=0)
        model.fit(x[:3000], y[:3000], epochs=15)
        acc = accuracy(y[3000:], model.predict(x[3000:]))
        assert 0.60 < acc < 0.75

    def test_cluster_shapes(self):
        x, y = iot_cluster_dataset(300, n_classes=5, seed=2)
        assert x.shape == (300, 11)
        assert y.max() == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            iot_binary_dataset(0)
        with pytest.raises(ValueError):
            iot_cluster_dataset(10, n_classes=1)


class TestCongestion:
    def test_shapes(self):
        seqs, actions = generate_congestion_traces(50, seed=0)
        assert seqs.shape == (50, 8, 5)
        assert actions.shape == (50,)

    def test_actions_in_range(self):
        __, actions = generate_congestion_traces(200, seed=1)
        assert actions.min() >= 0
        assert actions.max() <= 4

    def test_oracle_halves_on_loss(self):
        assert oracle_action(queue_frac=0.2, loss=0.5, utilization=0.5) == 0

    def test_oracle_grows_when_idle(self):
        assert oracle_action(queue_frac=0.05, loss=0.0, utilization=0.2) == 4

    def test_oracle_holds_at_operating_point(self):
        assert oracle_action(queue_frac=0.4, loss=0.0, utilization=0.9) == 2

    def test_observations_normalized(self):
        seqs, __ = generate_congestion_traces(100, seed=2)
        assert np.all(seqs[:, :, 1] >= 0)  # delivery rate
        assert np.all(seqs[:, :, 4] <= 1.0)  # loss fraction

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_any_size_works(self, n):
        seqs, actions = generate_congestion_traces(n, seed=3)
        assert len(seqs) == n
        assert len(actions) == n
