"""Multi-app fabric: interleaved throughput vs the serial-per-app baseline.

Not a paper table: this records how one switch serves *two* compiled
programs — the anomaly-detection DNN and the Indigo congestion LSTM —
through :class:`~repro.runtime.MultiAppFabric` (the realistic
several-models-per-device deployment shape Homunculus and Pegasus argue
for).  Three configurations per run:

* ``serial`` (shards=1) — the baseline: run app A to completion, swap the
  program once, run app B.  Aggregate drain is the sum of the per-app
  drains plus one reconfiguration.
* ``shards1_round_robin`` — one shared grid, chunks interleaved: every
  program switch bills the issue clock
  (:meth:`~repro.hw.grid.MapReduceBlock.reconfigure` accounting), so this
  shows the *cost* of fine-grained time-multiplexing.
* ``shards2_round_robin`` — shard→app affinity: each app owns a lane,
  zero reconfigurations, lanes drain concurrently — aggregate modeled
  throughput beats the serial baseline by up to the lane count.

Per-app results are asserted bit-identical across every configuration
(the fabric's core contract).  The smoke variant runs in tier-1; the
>=100k-packet two-app variant is opt-in via ``--runbench``.  Both update
``BENCH_multi_app.json``, whose ``best_aggregate_speedup`` floors are
enforced by ``benchmarks/check_bench.py`` in CI.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import render_table, write_result
from repro.datasets import (
    CongestionTraceConfig,
    congestion_packet_trace,
    dnn_feature_matrix,
    expand_to_packets,
    generate_connections,
)
from repro.ml import indigo_lstm
from repro.runtime import FabricApp, MultiAppFabric, available_parallelism

CFG = CongestionTraceConfig()


def _apps(quantized, lstm):
    return [
        FabricApp.from_quantized_dnn(quantized, name="anomaly"),
        FabricApp.from_lstm(
            lstm, window_steps=CFG.window_steps, name="congestion"
        ),
    ]


def _assert_identical(results, reference) -> None:
    for name, result in results.items():
        expected = reference[name]
        assert np.array_equal(result.decisions, expected.decisions), name
        assert np.array_equal(
            result.ml_scores, expected.ml_scores, equal_nan=True
        ), name
        assert np.array_equal(
            result.latencies_ns, expected.latencies_ns
        ), name


def _measure(quantized, lstm, anomaly_trace, congestion_trace, chunk_size):
    """Wall + modeled throughput per configuration; identity across all."""
    traces = {"anomaly": anomaly_trace, "congestion": congestion_trace}
    for trace in traces.values():
        trace.columns()  # prime cached columns outside the timers
    n_total = len(anomaly_trace) + len(congestion_trace)

    def run(shards, policy):
        fabric = MultiAppFabric(
            _apps(quantized, lstm), shards=shards, chunk_size=chunk_size
        )
        fabric.run(traces, policy=policy)  # warmup: primes partition caches
        # Fresh fabric for clean register state; construction builds the
        # lanes (graph compilation), so it stays outside the timer and
        # wall_pkt_per_s measures replay, not compile_graph.
        fabric = MultiAppFabric(
            _apps(quantized, lstm), shards=shards, chunk_size=chunk_size
        )
        t0 = time.perf_counter()
        outcome = fabric.run(traces, policy=policy)
        wall_s = time.perf_counter() - t0
        return outcome, wall_s

    serial, serial_wall = run(1, "serial")
    configs = {
        "shards1_round_robin": run(1, "round_robin"),
        "shards1_weighted": run(1, "weighted"),
        "shards2_round_robin": run(2, "round_robin"),
    }

    def row(outcome, wall_s):
        return {
            "drain_ns": float(outcome.drain_ns),
            "model_pkt_per_s": float(outcome.model_pkt_per_s),
            "wall_pkt_per_s": float(n_total / max(wall_s, 1e-12)),
            "reconfigurations": int(outcome.reconfigurations),
            "reconfig_ns": float(outcome.reconfig_ns),
            "per_app_model_pkt_per_s": {
                name: float(n / max(outcome.drain_ns * 1e-9, 1e-12))
                for name, n in outcome.per_app_packets.items()
            },
        }

    payload = {
        "n_packets": int(n_total),
        "apps": {
            name: int(n) for name, n in serial.per_app_packets.items()
        },
        "chunk_size": int(chunk_size),
        "host_cpus": int(available_parallelism()),
        "serial": row(serial, serial_wall),
        "configs": {},
    }
    for name, (outcome, wall_s) in configs.items():
        _assert_identical(outcome.results, serial.results)
        entry = row(outcome, wall_s)
        entry["aggregate_speedup"] = float(
            serial.drain_ns / max(outcome.drain_ns, 1e-12)
        )
        payload["configs"][name] = entry
    payload["best_aggregate_speedup"] = max(
        entry["aggregate_speedup"] for entry in payload["configs"].values()
    )
    return payload


def _report(name: str, payload: dict) -> None:
    rows = [
        [
            "serial (baseline)",
            f"{payload['serial']['drain_ns'] / 1e3:.1f}",
            f"{payload['serial']['model_pkt_per_s']:.3g}",
            "1.00x",
            payload["serial"]["reconfigurations"],
        ]
    ]
    for config, entry in payload["configs"].items():
        rows.append(
            [
                config,
                f"{entry['drain_ns'] / 1e3:.1f}",
                f"{entry['model_pkt_per_s']:.3g}",
                f"{entry['aggregate_speedup']:.2f}x",
                entry["reconfigurations"],
            ]
        )
    table = render_table(
        f"Multi-app fabric ({name}): {payload['n_packets']} packets "
        f"({payload['apps']}), chunk={payload['chunk_size']}",
        ["config", "drain us", "model pkt/s", "agg speedup", "reconfigs"],
        rows,
    )
    print("\n" + table)
    write_result("multi_app", table)


@pytest.mark.smoke
def test_multi_app_smoke(experiment, bench_json):
    """Tier-1-safe: two apps on one switch; affinity beats serial."""
    live = experiment.workload.live
    anomaly_trace = expand_to_packets(
        live,
        feature_matrix=dnn_feature_matrix(live),
        max_packets=5000,
        seed=17,
    )
    # The LSTM folds 6-way onto the 12x10 grid (II = 48 cycles), so ~1/48
    # of the DNN's packet count loads both lanes about equally.
    congestion_trace = congestion_packet_trace(120, CFG, seed=18)
    lstm = indigo_lstm(seed=18)
    result = _measure(
        experiment.dataplane.quantized,
        lstm,
        anomaly_trace,
        congestion_trace,
        chunk_size=512,
    )
    bench_json("multi_app", {"smoke": result})
    _report("smoke", result)
    # Fine-grained time-multiplexing on ONE grid pays for its swaps ...
    assert result["configs"]["shards1_round_robin"]["reconfigurations"] > 1
    # ... while affine lanes serve both apps faster than serially.
    assert result["best_aggregate_speedup"] >= 1.4


@pytest.mark.bench
def test_multi_app_full_trace(experiment, bench_json):
    """Opt-in: the >=100k-packet two-app workload (acceptance bar)."""
    dataset = generate_connections(6000, seed=23)
    trace = expand_to_packets(
        dataset,
        feature_matrix=dnn_feature_matrix(dataset),
        max_packets=150_000,
        seed=24,
    )
    # ~1/48 of the anomaly packet count balances the folded LSTM lane
    # (II = 48) against the line-rate DNN lane.
    congestion_trace = congestion_packet_trace(3000, CFG, seed=19)
    assert len(trace) + len(congestion_trace) >= 100_000
    lstm = indigo_lstm(seed=19)
    result = _measure(
        experiment.dataplane.quantized,
        lstm,
        trace,
        congestion_trace,
        chunk_size=8192,
    )
    bench_json("multi_app", {"full_trace": result})
    _report("full trace", result)
    assert result["best_aggregate_speedup"] >= 1.5
