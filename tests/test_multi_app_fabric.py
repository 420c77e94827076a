"""Property tests: the multi-app fabric == each app alone, exactly.

:class:`~repro.runtime.MultiAppFabric` time-multiplexes several compiled
programs over shared grid lanes; these tests drive two heterogeneous apps
(the anomaly DNN and the Indigo congestion LSTM) through the fabric at
shards ∈ {1, 2, 4} and assert each app's
merged results and pipeline state are bit/stat-identical to running that
app alone on its own trace — i.e. interleaving never leaks
register/recurrent state between apps.  Reconfiguration accounting, the
round-robin interleave, the ``run_multi`` surface, and the experiment
scenario are covered alongside.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    CongestionTraceConfig,
    congestion_packet_trace,
    expand_to_packets,
    generate_connections,
)
from repro.hw import MapReduceBlock
from repro.ml import indigo_lstm
from repro.runtime import FabricApp, MultiAppFabric, ShardedRuntime, sharded
from repro.runtime.fabric import _round_robin
from repro.runtime.sharded import in_arrival_order

from test_shard_runtime import (
    BACKENDS,
    _assert_same_result,
    _deep_equal,
    backend_cases,
)

HAS_FORK = hasattr(os, "fork")
CFG = CongestionTraceConfig()


@pytest.fixture(scope="module")
def lstm():
    """An Indigo-shaped LSTM (seeded init; training is irrelevant to
    identity/throughput semantics)."""
    return indigo_lstm(seed=4)


@pytest.fixture(scope="module")
def anomaly_trace(train_test_split):
    __, test = train_test_split
    return expand_to_packets(test, max_packets=600, seed=31)


@pytest.fixture(scope="module")
def congestion_trace():
    return congestion_packet_trace(140, CFG, seed=32)


def _apps(quantized_dnn, lstm):
    return [
        FabricApp.from_quantized_dnn(quantized_dnn, name="anomaly"),
        FabricApp.from_lstm(lstm, window_steps=CFG.window_steps, name="congestion"),
    ]


def _oracle(app, trace, chunk_size=64):
    """The app alone on a dedicated block — the PR-2 single-pipeline path."""
    pipe = app.build_pipeline(MapReduceBlock(app.graph))
    result = pipe.process_trace_batch(trace, chunk_size=chunk_size)
    return result, pipe


def _assert_result_equal(result, oracle, label):
    assert np.array_equal(result.order, oracle.order), f"{label}: order"
    assert np.array_equal(result.times, oracle.times), f"{label}: times"
    assert np.array_equal(result.decisions, oracle.decisions), (
        f"{label}: decisions"
    )
    assert np.array_equal(
        result.ml_scores, oracle.ml_scores, equal_nan=True
    ), f"{label}: ml_scores"
    assert np.array_equal(result.latencies_ns, oracle.latencies_ns), (
        f"{label}: latencies"
    )
    assert np.array_equal(result.bypassed, oracle.bypassed), f"{label}: bypass"
    assert result.aggregates.keys() == oracle.aggregates.keys()
    for key in oracle.aggregates:
        assert np.array_equal(
            result.aggregates[key], oracle.aggregates[key]
        ), f"{label}: aggregate {key}"


def _assert_state_matches(fabric, name, oracle_pipe):
    """The app's merged pipeline state == the standalone pipeline's."""
    state = fabric.app_state(name)
    assert state["stats"] == oracle_pipe.stats, name
    for reg, values in state["registers"].items():
        assert np.array_equal(
            values, getattr(oracle_pipe.accumulator, reg).values
        ), f"{name}: register {reg}"
    assert state["parser_packets"] == oracle_pipe.parser.packets_parsed
    for qname, queue in (
        ("ml", oracle_pipe.ml_queue),
        ("bypass", oracle_pipe.bypass_queue),
    ):
        assert state["queues"][qname]["drops"] == queue.drops
        assert (
            state["queues"][qname]["high_watermark"] == queue.high_watermark
        )
    assert state["arbiter_turn"] == oracle_pipe.arbiter._turn


class TestMultiAppIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("order", ["round_robin", "serial"])
    def test_identical_to_each_app_alone(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace,
        shards, order,
    ):
        """Per-app results and state never depend on shards or issue
        order: ``run``'s round-robin, or the serial baseline — one
        ``process_traces`` request per app, each run to completion."""
        apps = _apps(quantized_dnn, lstm)
        oracle_a, pipe_a = _oracle(apps[0], anomaly_trace)
        oracle_c, pipe_c = _oracle(apps[1], congestion_trace)
        fabric = MultiAppFabric(
            apps, shards=shards, chunk_size=64, executor="serial"
        )
        traces = {"anomaly": anomaly_trace, "congestion": congestion_trace}
        if order == "serial":
            results = dict(zip(traces, fabric.process_traces(traces.items())))
        else:
            outcome = fabric.run(traces)
            results = outcome.results
            assert outcome.n_packets == len(anomaly_trace) + len(congestion_trace)
            assert outcome.drain_ns == fabric.last_drain_ns
        _assert_result_equal(results["anomaly"], oracle_a, "anomaly")
        _assert_result_equal(results["congestion"], oracle_c, "congestion")
        _assert_state_matches(fabric, "anomaly", pipe_a)
        _assert_state_matches(fabric, "congestion", pipe_c)
        assert fabric.last_drain_ns > 0

    def test_interleave_does_not_leak_recurrent_or_register_state(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace
    ):
        """Back-to-back multi-app runs == back-to-back standalone runs.

        Register state accumulates across traces *within* an app; a second
        fabric pass must reproduce a second standalone pass exactly, which
        it can only do if no state bled between apps during either pass.
        """
        apps = _apps(quantized_dnn, lstm)
        pipe_a = apps[0].build_pipeline(MapReduceBlock(apps[0].graph))
        pipe_c = apps[1].build_pipeline(MapReduceBlock(apps[1].graph))
        fabric = MultiAppFabric(apps, shards=2, chunk_size=50)
        for __ in range(2):
            oracle_a = pipe_a.process_trace_batch(anomaly_trace, chunk_size=50)
            oracle_c = pipe_c.process_trace_batch(
                congestion_trace, chunk_size=50
            )
            outcome = fabric.run(
                {"anomaly": anomaly_trace, "congestion": congestion_trace}
            )
            _assert_result_equal(
                outcome.results["anomaly"], oracle_a, "anomaly"
            )
            _assert_result_equal(
                outcome.results["congestion"], oracle_c, "congestion"
            )
            _assert_state_matches(fabric, "anomaly", pipe_a)
            _assert_state_matches(fabric, "congestion", pipe_c)

    @pytest.mark.parametrize("backend, shards", backend_cases())
    def test_executors_agree(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace,
        backend, shards,
    ):
        """Every backend produces the oracle's exact results and state
        (fork additionally proves multi-pipeline-per-lane write-back)."""
        apps = _apps(quantized_dnn, lstm)
        oracle_a, pipe_a = _oracle(apps[0], anomaly_trace)
        oracle_c, pipe_c = _oracle(apps[1], congestion_trace)
        with MultiAppFabric(
            apps, shards=shards, chunk_size=64, **BACKENDS[backend]
        ) as fabric:
            outcome = fabric.run(
                {"anomaly": anomaly_trace, "congestion": congestion_trace}
            )
            _assert_result_equal(
                outcome.results["anomaly"], oracle_a, "anomaly"
            )
            _assert_result_equal(
                outcome.results["congestion"], oracle_c, "congestion"
            )
            _assert_state_matches(fabric, "anomaly", pipe_a)
            _assert_state_matches(fabric, "congestion", pipe_c)

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_fork_restores_resident_program(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace
    ):
        """Regression: fork write-back must also sync which program each
        lane's block left resident (it rides every chunk's state delta)
        — otherwise a *second* run on the same fabric models a different
        reconfiguration bill per backend."""
        outcomes = {}
        for backend in ("serial", "fork"):
            # Three apps on two lanes: lane 0 time-multiplexes two apps,
            # so its forked worker leaves a non-initial program resident.
            apps = _apps(quantized_dnn, lstm) + [
                FabricApp.from_quantized_dnn(quantized_dnn, name="anomaly2")
            ]
            traces = {
                "anomaly": anomaly_trace,
                "congestion": congestion_trace,
                "anomaly2": anomaly_trace,
            }
            with MultiAppFabric(
                apps, shards=2, chunk_size=64, **BACKENDS[backend]
            ) as fabric:
                first = fabric.run(traces)
                assert first.reconfigurations > 0  # lane 0 really switches
                outcomes[backend] = fabric.run(traces)
        assert (
            outcomes["serial"].reconfigurations
            == outcomes["fork"].reconfigurations
        )
        assert outcomes["serial"].drain_ns == outcomes["fork"].drain_ns

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(20, 120),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=6, deadline=None)
    def test_property_random_workloads(self, quantized_dnn, lstm, seed, n, shards):
        """Randomized traces: the fabric never diverges from the oracles."""
        dataset = generate_connections(max(n // 2, 10), seed=seed)
        trace_a = expand_to_packets(dataset, max_packets=n, seed=seed)
        trace_c = congestion_packet_trace(
            max(n // 3, 5), CFG, seed=seed, n_flows=7
        )
        apps = _apps(quantized_dnn, lstm)
        oracle_a, __ = _oracle(apps[0], trace_a, chunk_size=17)
        oracle_c, __ = _oracle(apps[1], trace_c, chunk_size=17)
        fabric = MultiAppFabric(apps, shards=shards, chunk_size=17)
        outcome = fabric.run({"anomaly": trace_a, "congestion": trace_c})
        _assert_result_equal(outcome.results["anomaly"], oracle_a, "anomaly")
        _assert_result_equal(
            outcome.results["congestion"], oracle_c, "congestion"
        )


class TestReconfigurationAccounting:
    def test_single_lane_pays_for_program_switches(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace
    ):
        """One shared grid: every app switch bills the issue clock."""
        apps = _apps(quantized_dnn, lstm)
        fabric = MultiAppFabric(apps, shards=1, chunk_size=64)
        rr = fabric.run(
            {"anomaly": anomaly_trace, "congestion": congestion_trace}
        )
        assert rr.reconfigurations > 1
        assert rr.reconfig_ns > 0
        # The serial baseline: one request per app, each run to completion
        # on a fresh grid (the anomaly program is resident), switches once;
        # interleaving switches on (nearly) every chunk boundary.
        serial = MultiAppFabric(apps, shards=1, chunk_size=64)
        block = serial.lanes[0][0].block
        serial.process_traces(
            [("anomaly", anomaly_trace), ("congestion", congestion_trace)]
        )
        assert block.reconfigurations == 1
        assert serial.last_drain_ns < rr.drain_ns

    def test_affine_lanes_eliminate_thrash(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace
    ):
        """shards >= apps: each app owns its lanes — zero reconfigs, and
        concurrent lanes drain faster than the time-shared grid."""
        apps = _apps(quantized_dnn, lstm)
        shared = MultiAppFabric(apps, shards=1, chunk_size=64)
        one = shared.run(
            {"anomaly": anomaly_trace, "congestion": congestion_trace}
        )
        affine = MultiAppFabric(apps, shards=2, chunk_size=64)
        two = affine.run(
            {"anomaly": anomaly_trace, "congestion": congestion_trace}
        )
        assert two.reconfigurations == 0
        assert two.reconfig_ns == 0.0
        assert 0 < two.drain_ns < one.drain_ns

    def test_reconfigure_respects_block_budgets(self, lstm):
        """Regression: reconfigure used to compile the new program without
        the grid's budgets.  The Indigo LSTM folds 6x onto the 12x10 grid
        (1x with no budget), and a swapped-in lowering must stay folded."""
        from repro.mapreduce import lstm_graph

        block = MapReduceBlock(lstm_graph(lstm, name="budget_probe"))
        assert block.design.fold_factor == 6
        block.reconfigure(lstm_graph(lstm, name="budget_probe_swap"))
        assert block.design.fold_factor == 6

    def test_accounted_swap_advances_issue_clock(self, quantized_dnn):
        from repro.mapreduce import dnn_graph

        block = MapReduceBlock(dnn_graph(quantized_dnn, name="p0"))
        other = dnn_graph(quantized_dnn, name="p1")
        before = block._next_issue_cycle
        block.reconfigure(other)  # control-plane swap: free by default
        assert block._next_issue_cycle == before
        block.reconfigure(block.graph, account=True)
        assert block._next_issue_cycle == before + block.reconfig_cycles
        assert block.reconfig_cycles == block.reconfig_cycles_for(block.graph)
        assert block.graph.config_words() > 0


def _one_call_per_slot(slots, chunk):
    """The twin's ``_fold``: every non-empty slot is its own piece."""
    for app, columns, __ in slots:
        if columns.n:
            yield app, [(columns, 0, columns.n)]


class TestInProcessFold:
    """In process, a lane scores each maximal run of same-app slots whose
    times never go back in one ``process_trace_batch`` call
    (``LaneRunner._run_schedules``), and that changes no output: a twin
    that makes one call per slot gives the same results, state, drain
    and swap counts."""

    CHUNKS = [1, 64, 512, 777]

    @staticmethod
    def _spy(rt):
        """Per lane, every ``process_trace_batch`` call as ``(app, times)``."""
        calls = [[] for __ in rt.lanes]
        for s, lane in enumerate(rt.lanes):
            for a, pipe in lane.items():
                def spy(columns, chunk_size, real=pipe.process_trace_batch, s=s, a=a):
                    calls[s].append((a, columns.times.copy()))
                    return real(columns, chunk_size=chunk_size)

                pipe.process_trace_batch = spy
        return calls

    @staticmethod
    def _runs(calls):
        """One lane's per-slot calls as maximal runs of one app whose
        times never go back: the calls the fold must make."""
        runs = []
        for app, times in calls:
            if runs and runs[-1][0] == app and times[0] >= runs[-1][1][-1]:
                runs[-1] = (app, np.concatenate([runs[-1][1], times]))
            else:
                runs.append((app, times))
        return runs

    def _fold_and_twin(self, make, drive, monkeypatch):
        """``drive`` on a fresh ``make()`` and on a per-slot twin: both
        outcomes, after pinning the folded calls to the twin's runs."""
        twin = make()
        twin_calls = self._spy(twin)
        with monkeypatch.context() as patch:
            patch.setattr(sharded, "_fold", _one_call_per_slot)
            want = drive(twin)
        rt = make()
        calls = self._spy(rt)
        got = drive(rt)
        for lane, twin_lane in zip(calls, twin_calls):
            runs = self._runs(twin_lane)
            assert [app for app, __ in lane] == [app for app, __ in runs]
            for (__, times), (__, expected) in zip(lane, runs):
                assert np.array_equal(times, expected)
        return (rt, got, calls), (twin, want, twin_calls)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_fabric_run(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace, shards, chunk,
        monkeypatch,
    ):
        apps = _apps(quantized_dnn, lstm)
        traces = {"anomaly": anomaly_trace, "congestion": congestion_trace}
        (fabric, got, calls), (twin, want, twin_calls) = self._fold_and_twin(
            lambda: MultiAppFabric(apps, shards=shards),
            lambda rt: rt.run(traces, chunk_size=chunk), monkeypatch,
        )
        turns = [-(-len(trace) // chunk) for trace in traces.values()]
        if shards == 1:  # a turn each while both have one, then the rest in one call
            assert [len(lane) for lane in twin_calls] == [sum(turns)]
            assert [len(lane) for lane in calls] == [2 * min(turns) + (turns[0] != turns[1])]
        else:  # each lane is one app's home: one call per lane
            assert [len(lane) for lane in calls] == [1, 1]
        for name in traces:
            _assert_same_result(got.results[name], want.results[name], f"{name} ")
            assert _deep_equal(fabric.app_state(name), twin.app_state(name)), name
        assert (got.drain_ns, got.reconfigurations, got.reconfig_ns) == (
            want.drain_ns, want.reconfigurations, want.reconfig_ns
        )
        assert fabric.last_drain_ns == twin.last_drain_ns

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_runtime_batch_with_a_backwards_request(
        self, quantized_dnn, anomaly_trace, chunk, monkeypatch
    ):
        """Requests ``[0:150], [150:300], [50:200], [300:]`` of one sorted
        trace: the third starts before the second's last time, so each
        lane makes two calls, the first two requests and the last two."""
        app = FabricApp.from_quantized_dnn(quantized_dnn, slots=8)
        __, ordered = in_arrival_order(anomaly_trace.columns())
        requests = [
            ordered.slice(slice(a, b))
            for a, b in ((0, 150), (150, 300), (50, 200), (300, ordered.n))
        ]
        assert requests[2].times[0] < requests[1].times[-1] <= requests[3].times[0]
        (rt, got, calls), (twin, want, __) = self._fold_and_twin(
            lambda: ShardedRuntime(
                lambda s: app.build_pipeline(MapReduceBlock(app.graph)), shards=2
            ),
            lambda rt: rt.process_traces(requests, chunk_size=chunk), monkeypatch,
        )
        assert [len(lane) for lane in calls] == [2, 2]
        for k, (result, expected) in enumerate(zip(got, want)):
            _assert_same_result(result, expected, f"[{k}] ")
        assert _deep_equal(rt.merged_state(), twin.merged_state())
        assert rt.last_drain_ns == twin.last_drain_ns


class TestChunkScheduler:
    """The one interleave: a lane issues its apps' chunks round-robin."""

    def test_round_robin_alternates(self):
        assert _round_robin([[0, 0, 0], [1, 1, 1]]) == [0, 1, 0, 1, 0, 1]
        assert _round_robin([[0, 0, 0, 0], [1]]) == [0, 1, 0, 0, 0]

    def test_per_app_order_is_fifo(self):
        queues = [[(a, k) for k in range(n)] for a, n in enumerate((5, 4, 3))]
        order = _round_robin(queues)
        assert len(order) == 12
        for a, queue in enumerate(queues):
            assert [item for item in order if item[0] == a] == queue


class TestFabricSurface:
    def test_run_multi_on_dataplane(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace
    ):
        from repro.testbed.dataplane import TaurusDataPlane

        dataplane = TaurusDataPlane(quantized_dnn, shards=2)
        apps = [
            dataplane.anomaly_app(),
            FabricApp.from_lstm(
                lstm, window_steps=CFG.window_steps, name="congestion"
            ),
        ]
        oracle_a, __ = _oracle(apps[0], anomaly_trace, chunk_size=8192)
        outcome = dataplane.run_multi(
            apps,
            {"anomaly": anomaly_trace, "congestion": congestion_trace},
        )
        _assert_result_equal(outcome.results["anomaly"], oracle_a, "anomaly")
        assert dataplane.last_modeled_drain_ns == outcome.drain_ns > 0
        assert outcome.reconfigurations == 0  # shards=2: one lane per app

    def test_traces_as_sequence(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace
    ):
        apps = _apps(quantized_dnn, lstm)
        fabric = MultiAppFabric(apps, chunk_size=64)
        by_name = fabric.run(
            {"anomaly": anomaly_trace, "congestion": congestion_trace}
        )
        fabric2 = MultiAppFabric(_apps(quantized_dnn, lstm), chunk_size=64)
        by_position = fabric2.run([anomaly_trace, congestion_trace])
        _assert_result_equal(
            by_position.results["anomaly"], by_name.results["anomaly"], "a"
        )

    def test_empty_app_trace(self, quantized_dnn, lstm, anomaly_trace):
        from repro.datasets.packets import TraceColumns

        apps = _apps(quantized_dnn, lstm)
        fabric = MultiAppFabric(apps, shards=2, chunk_size=64)
        outcome = fabric.run(
            {
                "anomaly": anomaly_trace,
                "congestion": TraceColumns.from_packets([]),
            }
        )
        assert len(outcome.results["congestion"]) == 0
        assert len(outcome.results["anomaly"]) == len(anomaly_trace)

    def test_empty_trace_leaves_app_state_untouched(
        self, quantized_dnn, lstm, anomaly_trace, congestion_trace
    ):
        """A later run that hands an app no packets (what every per-app
        service request does to the other app) must not move that app's
        merged state — the arbiter turn used to reset to 0."""
        from repro.datasets.packets import TraceColumns

        apps = _apps(quantized_dnn, lstm)
        fabric = MultiAppFabric(apps, shards=2, chunk_size=64)
        fabric.run({"anomaly": anomaly_trace, "congestion": congestion_trace})
        fabric.run(
            {
                "anomaly": anomaly_trace,
                "congestion": TraceColumns.from_packets([]),
            }
        )
        __, alone = _oracle(apps[1], congestion_trace)
        assert alone.arbiter._turn != 0  # or the reset would go unseen
        _assert_state_matches(fabric, "congestion", alone)

    def test_validation(self, quantized_dnn, lstm, anomaly_trace):
        apps = _apps(quantized_dnn, lstm)
        with pytest.raises(ValueError):
            MultiAppFabric(apps, shards=0)
        with pytest.raises(ValueError, match="duplicate app name"):
            MultiAppFabric(apps + [apps[0]])
        with pytest.raises(ValueError, match="no apps"):
            MultiAppFabric([])
        fabric = MultiAppFabric(apps)
        with pytest.raises(ValueError):
            fabric.run({"anomaly": anomaly_trace})  # congestion missing
        unknown = r"unknown apps \['nope'\]; registered: \['anomaly', 'congestion'\]"
        with pytest.raises(ValueError, match=unknown):
            fabric.process_traces([("anomaly", anomaly_trace), ("nope", anomaly_trace)])
        with pytest.raises(ValueError, match=unknown):  # run used to ignore the key
            fabric.run({"anomaly": anomaly_trace, "congestion": [], "nope": anomaly_trace})
        assert fabric.app_state("anomaly")["parser_packets"] == 0  # nothing ran
        with pytest.raises(KeyError):
            fabric.app_state("nope")

    def test_unsorted_packet_trace_matches_oracle(
        self, quantized_dnn, lstm
    ):
        """Regression: a PacketTrace whose packets are NOT in arrival
        order must still merge bit-identically (a partition cached on the
        trace once indexed its *original* column order and misplaced rows)."""
        from repro.datasets.packets import PacketTrace

        dataset = generate_connections(60, seed=51)
        sorted_trace = expand_to_packets(dataset, max_packets=200, seed=52)
        scrambled = PacketTrace(
            packets=list(reversed(sorted_trace.packets)),
            flows=sorted_trace.flows,
            duration=sorted_trace.duration,
            offered_gbps=sorted_trace.offered_gbps,
        )
        app = FabricApp.from_quantized_dnn(quantized_dnn, name="anomaly")
        oracle, __ = _oracle(app, scrambled, chunk_size=32)
        for shards in (1, 2, 4):
            fabric = MultiAppFabric([app], shards=shards, chunk_size=32)
            outcome = fabric.run({"anomaly": scrambled})
            _assert_result_equal(
                outcome.results["anomaly"], oracle, f"shards={shards}"
            )

    def test_design_cache_is_bounded(self, quantized_dnn):
        """Regression: per-update fresh graphs must not grow the block's
        compiled-design cache (and pin their graphs) without bound."""
        from repro.hw.grid import DESIGN_CACHE_LIMIT
        from repro.mapreduce import dnn_graph

        block = MapReduceBlock(dnn_graph(quantized_dnn, name="g0"))
        for i in range(DESIGN_CACHE_LIMIT * 2):
            block.reconfigure(dnn_graph(quantized_dnn, name=f"g{i + 1}"))
        assert len(block._design_cache) <= DESIGN_CACHE_LIMIT
        # The resident program always stays cached.
        assert any(
            g is block.graph for g, __ in block._design_cache.values()
        )

    def test_lane_affinity_map(self, quantized_dnn, lstm):
        apps = _apps(quantized_dnn, lstm)
        assert MultiAppFabric(apps, shards=1).lane_apps() == [[0, 1]]
        assert MultiAppFabric(apps, shards=2).lane_apps() == [[0], [1]]
        assert MultiAppFabric(apps, shards=4).lane_apps() == [
            [0], [1], [0], [1],
        ]
        fabric = MultiAppFabric(apps, shards=4)
        assert fabric.app_lanes(0) == [0, 2]
        assert fabric.app_lanes(1) == [1, 3]


class TestExperimentScenario:
    def test_multi_app_row(self):
        from repro.testbed import EndToEndExperiment

        experiment = EndToEndExperiment.build(
            n_connections=400, max_packets=3000, epochs=2, seed=0
        )
        row = experiment.run_multi_app(
            n_congestion_packets=200, lstm_sequences=80, lstm_epochs=1
        )
        assert row.n_packets == 3000 + 200
        assert row.drain_ns > 0
        # shards=1 data plane: the two apps time-share one grid.
        assert row.reconfigurations > 0
        assert 0.0 <= row.congestion_action_agreement <= 1.0
        # The shared fabric must not change what the anomaly app detects.
        solo = experiment.taurus_result()
        assert row.anomaly == solo


class TestActionPostprocessHooks:
    """The shared scalar+batch decision hook pair and its KMeans consumer."""

    def test_scalar_batch_agree_per_row(self):
        from repro.pisa.pipeline import action_postprocess

        scalar, batch = action_postprocess()
        values = np.array(
            [[3.2, 1.0], [-0.4, 2.0], [7.9, 3.0]], dtype=np.float64
        )
        vectorized = batch(values)
        assert vectorized.dtype == np.int64
        assert vectorized.tolist() == [scalar(row) for row in values]

    def test_component_selection(self):
        from repro.pisa.pipeline import action_postprocess

        scalar, batch = action_postprocess(component=1)
        values = np.array([[9.0, 4.6], [9.0, -1.2]])
        assert batch(values).tolist() == [4, -1]
        assert scalar(values[0]) == 4

    def test_from_kmeans_builds_serving_app(self):
        from repro.datasets import (
            IOT_CLUSTER_FEATURES,
            iot_cluster_dataset,
            iot_packet_trace,
        )
        from repro.ml import KMeans

        feats, __ = iot_cluster_dataset(300, seed=7)
        km = KMeans(n_clusters=4, seed=1).fit(feats)
        app = FabricApp.from_kmeans(km)
        assert app.name == "iot"
        assert tuple(app.feature_names) == IOT_CLUSTER_FEATURES

        trace = iot_packet_trace(96, seed=9)
        fabric = MultiAppFabric([app], shards=1)
        result = fabric.run({"iot": trace}, chunk_size=32).results["iot"]
        fabric.close()
        assert result.decisions.shape == (96,)
        assert set(np.unique(result.decisions)) <= set(range(4))

    def test_from_kmeans_rejects_bad_inputs(self):
        from repro.datasets import iot_cluster_dataset
        from repro.ml import KMeans

        with pytest.raises(ValueError, match="fitted"):
            FabricApp.from_kmeans(KMeans(n_clusters=3, seed=0))
        feats, __ = iot_cluster_dataset(200, seed=2)
        km = KMeans(n_clusters=3, seed=0).fit(feats)
        with pytest.raises(ValueError, match="feature"):
            FabricApp.from_kmeans(km, feature_names=("a", "b"))
