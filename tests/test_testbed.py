"""Tests for the end-to-end testbed: traffic, baseline, data plane, training."""

import pytest

from repro.testbed import (
    ControlPlaneBaseline,
    OnlineTrainer,
    StageLatencies,
    TaurusDataPlane,
    TrainingCostModel,
    build_workload,
)


@pytest.fixture(scope="module")
def small_workload():
    return build_workload(n_connections=800, max_packets=25_000, seed=2)


class TestWorkload:
    def test_split_disjoint_sizes(self, small_workload):
        assert len(small_workload.train) == 400  # the other half goes live

    def test_trace_matches_live_flows(self, small_workload):
        assert len(small_workload.trace.flows) == 800 - len(small_workload.train)

    def test_packet_rate_positive(self, small_workload):
        assert small_workload.packet_rate_pps > 0

    def test_anomalous_packets_present(self, small_workload):
        assert 0 < small_workload.anomalous_packets < small_workload.n_packets


class TestControlPlaneBaseline:
    def test_stage_latency_model(self):
        stages = StageLatencies()
        assert stages.db_ms(1) < stages.db_ms(30) < stages.db_ms(3000)
        # Bulk regime: marginal cost collapses past the knee.
        marginal_small = stages.db_ms(30) - stages.db_ms(29)
        marginal_big = stages.db_ms(3000) - stages.db_ms(2999)
        assert marginal_big < marginal_small

    def test_batches_grow_with_sampling(self, small_workload, trained_dnn):
        baseline = ControlPlaneBaseline(model=trained_dnn, seed=0)
        low = baseline.run(small_workload.trace, 1e-4)
        high = baseline.run(small_workload.trace, 1e-2)
        assert high.mean_batch > low.mean_batch

    def test_detection_far_below_taurus(self, small_workload, trained_dnn, quantized_dnn):
        baseline = ControlPlaneBaseline(model=trained_dnn, seed=0)
        result = baseline.run(small_workload.trace, 1e-3)
        taurus = TaurusDataPlane(quantized_dnn).run_switch(small_workload.trace)
        assert taurus.detected_percent > 10 * max(result.detected_percent, 0.1)

    def test_total_is_stage_sum(self, small_workload, trained_dnn):
        baseline = ControlPlaneBaseline(model=trained_dnn, seed=0)
        r = baseline.run(small_workload.trace, 1e-3)
        assert r.total_ms == pytest.approx(
            r.xdp_ms + r.db_ms + r.ml_ms + r.install_ms, rel=1e-6
        )

    def test_invalid_rate(self, small_workload, trained_dnn):
        baseline = ControlPlaneBaseline(model=trained_dnn, seed=0)
        with pytest.raises(ValueError):
            baseline.run(small_workload.trace, 0.0)


class TestTaurusDataPlane:
    def test_full_model_accuracy(self, small_workload, quantized_dnn, train_test_split):
        """The data plane sustains the model's offline F1 (Section 5.2.2)."""
        plane = TaurusDataPlane(quantized_dnn)
        result = plane.run_switch(small_workload.trace)
        assert result.f1_percent > 60.0
        assert result.detected_percent > 50.0

    def test_latency_is_fabric_latency(self, small_workload, quantized_dnn):
        plane = TaurusDataPlane(quantized_dnn)
        result = plane.run_switch(small_workload.trace)
        assert result.added_latency_ns == pytest.approx(151, abs=25)

    def test_fabric_equivalence(self, small_workload, quantized_dnn, monkeypatch):
        """Many small chunks stream to the same bit-exact scores."""
        from repro.testbed import dataplane as dataplane_mod

        monkeypatch.setattr(dataplane_mod, "DEFAULT_TRACE_CHUNK", 16)
        plane = TaurusDataPlane(quantized_dnn)
        assert plane.verify_equivalence(small_workload.trace)

    def test_fabric_equivalence_full_trace(self, small_workload, quantized_dnn):
        """Default verify now streams the whole trace, not a spot check."""
        plane = TaurusDataPlane(quantized_dnn)
        assert plane.verify_equivalence(small_workload.trace)

    def test_chunk_size_does_not_change_scores(self, small_workload, quantized_dnn, monkeypatch):
        from functools import partial
        from repro.runtime import ShardedRuntime
        from repro.testbed import dataplane as dataplane_mod

        plane = TaurusDataPlane(quantized_dnn)
        results = []
        for chunk in (1000, 100_000):
            runtime = partial(ShardedRuntime, chunk_size=chunk)
            monkeypatch.setattr(dataplane_mod, "ShardedRuntime", runtime)
            results.append(plane.run_switch(small_workload.trace))
        assert results[0] == results[1]

    def test_scoring_does_not_advance_issue_clock(self, small_workload, quantized_dnn):
        """verify is a read-only pass: the block's issue clock stays put."""
        plane = TaurusDataPlane(quantized_dnn)
        plane.verify_equivalence(small_workload.trace)
        assert plane.block._next_issue_cycle == 0


class TestExperimentReusesTaurusPass:
    def test_one_streamed_pass_per_sweep(self, monkeypatch):
        """Regression: run_row used to recompute the (sampling-rate-
        independent) Taurus result for every row of the sweep."""
        from repro.testbed import EndToEndExperiment
        from repro.testbed import dataplane as dataplane_mod

        experiment = EndToEndExperiment.build(
            n_connections=400, max_packets=4000, epochs=2, seed=0
        )
        calls = {"run": 0}
        original = dataplane_mod.TaurusDataPlane.run_switch

        def counting_run(self, trace):
            calls["run"] += 1
            return original(self, trace)

        monkeypatch.setattr(dataplane_mod.TaurusDataPlane, "run_switch", counting_run)
        rows = experiment.run(sampling_rates=(1e-4, 1e-3, 1e-2))
        assert calls["run"] == 1
        # The rows are unchanged: every one carries the single shared pass.
        direct = original(experiment.dataplane, experiment.workload.trace)
        for row in rows:
            assert row.taurus == direct


class TestOnlineTrainer:
    @pytest.fixture(scope="class")
    def trainer(self, train_test_split):
        train, test = train_test_split
        return OnlineTrainer(
            train_pool=train, test_pool=test, packet_rate_pps=500_000, seed=0
        )

    def test_f1_improves(self, trainer):
        curve = trainer.run(1e-2, batch_size=64, epochs=1, horizon_s=1.0, max_updates=60)
        assert curve[-1].f1_percent > curve[0].f1_percent

    def test_higher_sampling_converges_faster(self, trainer):
        """Fig. 13's headline."""
        slow = trainer.run(1e-4, batch_size=64, epochs=1, horizon_s=20.0, max_updates=60)
        fast = trainer.run(1e-2, batch_size=64, epochs=1, horizon_s=20.0, max_updates=60)
        target = 66.0
        t_slow = trainer.time_to_reach(slow, target)
        t_fast = trainer.time_to_reach(fast, target)
        assert t_fast is not None
        assert t_slow is None or t_fast < t_slow

    def test_cost_model_scales(self):
        cost = TrainingCostModel()
        assert cost.update_ms(256, 10) > cost.update_ms(64, 1)

    def test_curve_points_monotone_in_time(self, trainer):
        curve = trainer.run(1e-3, batch_size=64, epochs=1, horizon_s=2.0, max_updates=30)
        times = [p.time_s for p in curve]
        assert times == sorted(times)

    def test_invalid_args(self, trainer):
        with pytest.raises(ValueError):
            trainer.run(0.0)
        with pytest.raises(ValueError):
            trainer.run(1e-2, batch_size=0)
