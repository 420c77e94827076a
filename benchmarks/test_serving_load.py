"""Always-on serving under load: throughput + time-to-decision envelope.

Not a paper table: this prices PR 8's :class:`~repro.runtime.InferenceService`
— the admission-controlled, bounded-queue front door over the warm shard
pool.  One question matters for a per-packet ML service: **what happens to
decision latency and loss as offered load crosses capacity?**

The benchmark first measures drain capacity (a warm service pumping a full
backlog with no pacing), then drives a seeded bursty two-tenant arrival
schedule through a *started* (threaded) service at three operating points:

* ``below_capacity`` (~0.5x) — everything should be admitted and p99
  time-to-decision should stay near the per-chunk service time;
* ``at_capacity`` (~1.0x) — queues absorb bursts, accounting stays exact;
* ``overload`` (~3x) — bounded queues must *shed* instead of growing, and
  the service keeps answering with explicit verdicts.

Per point it records offered vs. served packet rate, p50/p99
time-to-decision, and the accepted / shed / deferred split.  The smoke
variant runs in tier-1; ``--runbench`` adds a larger trace.  Both update
``BENCH_serving.json``; ``benchmarks/check_bench.py`` floors the overload
shed count and the below-capacity accept ratio.
"""

from __future__ import annotations

import time

import pytest

from repro.core import render_table, write_result
from repro.datasets import dnn_feature_matrix, expand_to_packets
from repro.hw import MapReduceBlock
from repro.mapreduce import dnn_graph
from repro.runtime import ClientSpec, InferenceService, ShardedRuntime
from repro.testbed import bursty_schedule, chunk_columns, replay_wall
from repro.testbed.dataplane import TaurusDataPlane

SHARDS = 2

#: (point name, offered load as a fraction of measured capacity)
POINTS = (
    ("below_capacity", 0.5),
    ("at_capacity", 1.0),
    ("overload", 3.0),
)


def _backend(quantized) -> ShardedRuntime:
    """A sharded runtime over warm fork workers (one block per shard)."""
    plane = TaurusDataPlane(quantized)
    blocks = [MapReduceBlock(dnn_graph(quantized)) for __ in range(SHARDS)]
    return ShardedRuntime(
        lambda shard: plane.build_pipeline(block=blocks[shard]),
        shards=SHARDS,
        executor="fork",
        pool=True,
    )


def _split_round_robin(chunks, names):
    return {
        name: [c for j, c in enumerate(chunks) if j % len(names) == i]
        for i, name in enumerate(names)
    }


def _capacity_pkt_s(backend, chunks, chunk_packets) -> float:
    """Drain-limited packet rate: submit a full backlog, pump it dry."""
    svc = InferenceService(
        backend,
        [ClientSpec(name="cap", queue_depth=len(chunks))],
        chunk_size=chunk_packets,
        own_backend=False,
    )
    for chunk in chunks[:4]:  # warm the pool outside the timer
        svc.submit("cap", chunk)
    svc.pump()
    for chunk in chunks:
        svc.submit("cap", chunk)
    t0 = time.perf_counter()
    svc.pump()
    elapsed = time.perf_counter() - t0
    packets = sum(c.n for c in chunks)
    svc.close()
    return packets / max(elapsed, 1e-9)


def _drive_point(backend, chunks, chunk_packets, factor, capacity_pkt_s, seed):
    """One operating point: bursty two-tenant replay at ``factor``x capacity."""
    names = ("alpha", "beta")
    per_client = _split_round_robin(chunks, names)
    counts = {name: len(per_client[name]) for name in names}
    rate_chunks_s = factor * capacity_pkt_s / chunk_packets
    schedule = bursty_schedule(
        counts,
        seed=seed,
        base_rate=rate_chunks_s,
        burst_factor=3.0,
        burst_every=16,
        burst_len=6,
    )
    svc = InferenceService(
        backend,
        [
            ClientSpec(name=name, queue_depth=6, result_depth=len(chunks))
            for name in names
        ],
        chunk_size=chunk_packets,
        own_backend=False,
    )
    svc.start()
    t0 = time.perf_counter()
    replay_wall(svc, schedule, per_client)
    stats = svc.drain(timeout=120.0)
    wall = time.perf_counter() - t0
    svc.close()
    return {
        "offered_factor": factor,
        "offered_pkt_s": factor * capacity_pkt_s,
        "wall_s": wall,
        "throughput_pkt_s": stats.packets_out / max(wall, 1e-9),
        "p50_decision_ms": stats.p50_decision_s * 1e3,
        "p99_decision_ms": stats.p99_decision_s * 1e3,
        "submitted": int(stats.submitted),
        "accepted": int(stats.accepted),
        "deferred": int(stats.deferred),
        "shed": int(stats.shed),
        "completed": int(stats.completed),
        "expired": int(stats.expired),
        "accept_ratio": stats.accepted / max(stats.submitted, 1),
    }


def _measure(quantized, trace, chunk_packets, seed=0) -> dict:
    chunks = chunk_columns(trace, chunk_packets)
    with _backend(quantized) as backend:
        capacity = _capacity_pkt_s(backend, chunks, chunk_packets)
        result: dict = {
            "n_chunks": len(chunks),
            "chunk_packets": int(chunk_packets),
            "n_packets": int(sum(c.n for c in chunks)),
            "shards": SHARDS,
            "capacity_pkt_s": capacity,
            "points_recorded": 0,
        }
        for name, factor in POINTS:
            result[name] = _drive_point(
                backend, chunks, chunk_packets, factor, capacity, seed
            )
            result["points_recorded"] += 1
    return result


def _report(name: str, payload: dict) -> None:
    rows = [
        ["drain capacity", f"{payload['capacity_pkt_s']:,.0f} pkt/s", "", ""],
    ]
    for point, __ in POINTS:
        p = payload[point]
        rows.append(
            [
                f"{point} ({p['offered_factor']:.1f}x)",
                f"{p['throughput_pkt_s']:,.0f} pkt/s",
                f"{p['p50_decision_ms']:.1f} / {p['p99_decision_ms']:.1f} ms",
                f"{p['accepted']}/{p['shed']}/{p['deferred']}",
            ]
        )
    table = render_table(
        f"Always-on serving ({name}): {payload['n_packets']} packets in "
        f"{payload['n_chunks']} chunks of {payload['chunk_packets']}, "
        f"{payload['shards']} shards",
        ["operating point", "served", "p50 / p99 decision", "acc/shed/def"],
        rows,
    )
    print("\n" + table)
    write_result("serving", table)


def _check(result: dict) -> None:
    assert result["points_recorded"] == len(POINTS)
    assert result["overload"]["shed"] >= 1, "overload point never shed"
    assert result["below_capacity"]["accept_ratio"] >= 0.6
    assert result["below_capacity"]["completed"] >= 1
    for point, __ in POINTS:
        # Bounded queues: everything offered got an explicit verdict.
        p = result[point]
        assert p["accepted"] + p["shed"] + p["deferred"] == p["submitted"]


@pytest.mark.smoke
def test_serving_smoke(experiment, bench_json):
    """Tier-1-safe: three operating points on a small trace."""
    live = experiment.workload.live
    trace = expand_to_packets(
        live,
        feature_matrix=dnn_feature_matrix(live),
        max_packets=4600,
        seed=45,
    )
    result = _measure(experiment.dataplane.quantized, trace, chunk_packets=96)
    bench_json("serving", {"smoke": result})
    _report("smoke", result)
    _check(result)


@pytest.mark.bench
def test_serving_full(experiment, bench_json):
    """Opt-in: a larger trace and bigger chunks."""
    live = experiment.workload.live
    trace = expand_to_packets(
        live,
        feature_matrix=dnn_feature_matrix(live),
        max_packets=23_000,
        seed=46,
    )
    result = _measure(
        experiment.dataplane.quantized, trace, chunk_packets=192, seed=1
    )
    bench_json("serving", {"full_trace": result})
    _report("full trace", result)
    _check(result)
