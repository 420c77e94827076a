"""Integration tests: the whole system end to end.

These exercise the library the way the paper's evaluation does — train,
quantize, lower, deploy on the switch, replay traffic, and compare against
the control-plane baseline — asserting the *shape* of the paper's results.
"""

import numpy as np
import pytest

from repro.apps import AnomalyDetector, CongestionController, IoTClassifier, cluster_purity
from repro.compiler import compile_graph
from repro.datasets import generate_connections
from repro.hw import TaurusChip
from repro.hw.grid import CU_BUDGET, MU_BUDGET
from repro.mapreduce import dnn_graph, kmeans_graph, svm_graph, lstm_graph
from repro.pisa import from_record
from repro.testbed import EndToEndExperiment


class TestTable5Shape:
    """Application overheads: order, magnitudes, line-rate status."""

    @pytest.fixture(scope="class")
    def designs(self, quantized_dnn, trained_svm, trained_kmeans):
        from repro.ml import indigo_lstm

        return {
            "kmeans": compile_graph(kmeans_graph(trained_kmeans)),
            "svm": compile_graph(svm_graph(trained_svm)),
            "dnn": compile_graph(dnn_graph(quantized_dnn)),
            "lstm": compile_graph(
                lstm_graph(indigo_lstm(seed=0)),
                cu_budget=CU_BUDGET,
                mu_budget=MU_BUDGET,
            ),
        }

    def test_latency_ordering(self, designs):
        """KMeans < SVM < DNN << LSTM (Table 5)."""
        assert (
            designs["kmeans"].latency_ns
            < designs["svm"].latency_ns
            < designs["dnn"].latency_ns
            < designs["lstm"].latency_ns
        )

    def test_latency_magnitudes(self, designs):
        assert designs["kmeans"].latency_ns == pytest.approx(61, abs=25)
        assert designs["svm"].latency_ns == pytest.approx(83, abs=25)
        assert designs["dnn"].latency_ns == pytest.approx(221, abs=80)
        assert designs["lstm"].latency_ns == pytest.approx(805, abs=120)

    def test_line_rate_except_lstm(self, designs):
        for name in ("kmeans", "svm", "dnn"):
            assert designs[name].line_rate_fraction == 1.0, name
        assert designs["lstm"].line_rate_fraction < 1.0

    def test_area_overheads_small(self, designs):
        chip = TaurusChip()
        for name in ("kmeans", "svm", "dnn"):
            report = chip.design_overheads(designs[name])
            assert report.area_percent < 1.5, name

    def test_switch_latency_overhead(self, designs):
        """KMeans/SVM/DNN add ~6/8/22% to a 1 us switch (Section 5.1.2)."""
        chip = TaurusChip()
        assert chip.switch_latency_overhead_percent(designs["kmeans"]) < 10
        assert chip.switch_latency_overhead_percent(designs["dnn"]) < 30

    def test_everything_fits_the_grid(self, designs):
        for design in designs.values():
            assert design.n_cu <= CU_BUDGET
            assert design.n_mu <= MU_BUDGET


class TestAnomalyDetectorApp:
    @pytest.fixture(scope="class")
    def detector(self):
        return AnomalyDetector.from_dataset(n_connections=3000, epochs=12, seed=1)

    def test_offline_scores_near_paper(self, detector):
        held_out = generate_connections(2500, seed=77)
        scores = detector.offline_scores(held_out)
        assert 0.6 < scores["f1_fix8"] < 0.85       # paper: 0.711
        assert abs(scores["f1_fix8"] - scores["f1_float"]) < 0.05

    def test_pipeline_processes_packets(self, detector):
        from repro.datasets import expand_to_packets

        ds = generate_connections(200, seed=9)
        trace = expand_to_packets(ds, max_packets=300, seed=9)
        results = [detector.pipeline.process(from_record(p)) for p in trace.packets[:100]]
        flagged = sum(1 for r in results if r.decision != 0)
        assert 0 < flagged < 100

    def test_weight_update_swaps_model(self, detector):
        """A control-plane weight update (Section 5.2.3): a newly trained
        model, re-quantized, swaps into the deployed block."""
        from repro.apps import train_anomaly_dnn
        from repro.datasets import dnn_feature_matrix
        from repro.fixpoint import quantize_model

        ds = generate_connections(1500, seed=42)
        x = dnn_feature_matrix(ds)[:128]
        before = detector.block.graph.execute_batch(x)
        new_model = quantize_model(train_anomaly_dnn(ds, epochs=3, seed=42), x)
        detector.block.reconfigure(dnn_graph(new_model, name="anomaly_dnn"))
        assert not np.array_equal(detector.block.graph.execute_batch(x), before)



class TestIoTClassifierApp:
    def test_purity_high(self):
        app, features, labels = IoTClassifier.train(n_samples=1200, seed=0)
        assignments = app.classify_batch(features[:300])
        assert cluster_purity(assignments, labels[:300]) > 0.85

    def test_single_classify(self):
        app, features, __ = IoTClassifier.train(n_samples=800, seed=1)
        cluster = int(app.block.process(features[0]).value[0])
        assert 0 <= cluster < 5

    def test_latency_near_paper(self):
        app, __, __labels = IoTClassifier.train(n_samples=800, seed=2)
        assert app.latency_ns == pytest.approx(61, abs=25)


class TestCongestionApp:
    @pytest.fixture(scope="class")
    def controller(self):
        app, acc = CongestionController.train(n_sequences=600, epochs=8, seed=0)
        return app, acc

    def test_imitation_accuracy(self, controller):
        __, acc = controller
        assert acc > 0.5

    def test_decision_interval_near_paper(self, controller):
        app, __ = controller
        assert app.block.latency_ns == pytest.approx(805, abs=120)

    def test_faster_decisions_improve_control(self, controller):
        """Sub-us decisions hold the queue lower than 10 ms decisions —
        the paper's argument for running Indigo on the switch."""
        from repro.apps import closed_loop_metrics

        app, __ = controller
        slow = closed_loop_metrics(app, decision_interval_s=10e-3, sim_time_s=0.15, seed=1)
        fast = closed_loop_metrics(app, decision_interval_s=1e-4, sim_time_s=0.15, seed=1)
        assert fast["p99_queue_fraction"] <= slow["p99_queue_fraction"] + 0.05
        assert fast["loss_events"] <= slow["loss_events"] + max(2, 0.5 * slow["loss_events"])


class TestEndToEndTable8:
    @pytest.fixture(scope="class")
    def experiment(self):
        return EndToEndExperiment.build(
            n_connections=2500, max_packets=60_000, epochs=12, seed=0
        )

    def test_taurus_beats_baseline_everywhere(self, experiment):
        rows = experiment.run(sampling_rates=(1e-4, 1e-3))
        for row in rows:
            assert row.detection_advantage > 10
            assert row.taurus.f1_percent > row.baseline.f1_percent

    def test_detection_two_orders_of_magnitude(self, experiment):
        """The abstract's claim at the paper's best baseline point."""
        row = experiment.run_row(1e-4)
        assert row.detection_advantage > 25

    def test_latency_grows_with_sampling(self, experiment):
        rows = experiment.run(sampling_rates=(1e-4, 1e-2))
        assert rows[1].baseline.total_ms > rows[0].baseline.total_ms

    def test_taurus_constant_across_rates(self, experiment):
        rows = experiment.run(sampling_rates=(1e-4, 1e-2))
        assert rows[0].taurus.f1_percent == rows[1].taurus.f1_percent

    def test_dataplane_equivalence(self, experiment):
        assert experiment.verify_dataplane()
