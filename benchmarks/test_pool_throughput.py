"""Persistent-pool amortization: warm ShardPool runs vs run-scoped workers.

Not a paper table: this records what keeping fork workers warm buys.
``executor="fork"`` alone gives every run its own
:class:`~repro.runtime.ShardPool`: fork N workers, stream the chunks,
reap everything — on **every** ``run_switch`` call.  Fine for one
142k-packet replay, but the setup swamps small/interactive traces served
repeatedly (the serving-substrate shape Pegasus/Homunculus assume).
``TaurusDataPlane(pool=True)`` keeps one pool warm across calls, paying
per-run only for the chunks themselves plus a zero-payload rewind.

Recorded per shard count: wall-clock for ``repeats`` consecutive
``run_switch`` calls on run-scoped workers vs the warm pool, their ratio
(``repeat_speedup``), and the pool's sustained packets/sec.  Results are
asserted bit/stat-identical to the single-pipeline oracle at shards ∈
{1, 2, 4} (and per call between the two paths).  The smoke variant runs
in tier-1; ``--runbench`` adds the larger repeated-trace sweep.  Both
update ``BENCH_pool_runtime.json``; ``benchmarks/check_bench.py`` floors
the speedup so later PRs can't silently regress warm-pool serving.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import render_table, write_result
from repro.datasets import dnn_feature_matrix, expand_to_packets
from repro.runtime import available_parallelism
from repro.testbed.dataplane import TaurusDataPlane

HAS_FORK = hasattr(os, "fork")
#: The executor whose per-run setup the pool amortizes.  Without fork
#: (non-POSIX) there is only the in-process loop, and the comparison is
#: skipped.
EXECUTOR = "fork" if HAS_FORK else "serial"


def _measure(quantized, trace, shard_counts, repeats, chunk_size=512) -> dict:
    """Repeated small-trace replays: run-scoped workers vs one warm pool."""
    trace.columns()  # prime the cached columnar view outside the timers
    oracle = TaurusDataPlane(quantized)
    reference = oracle.run_switch(trace, chunk_size=chunk_size)
    rows: dict[str, dict] = {}
    for shards in shard_counts:
        per_run = TaurusDataPlane(quantized, shards=shards, executor=EXECUTOR)
        per_run._exact_shard_blocks()  # compile outside the timers
        result = per_run.run_switch(trace, chunk_size=chunk_size)  # warmup
        assert result == reference, "run-scoped workers diverged from the oracle"
        t0 = time.perf_counter()
        for __ in range(repeats):
            result = per_run.run_switch(trace, chunk_size=chunk_size)
        fork_s = time.perf_counter() - t0

        with TaurusDataPlane(
            quantized, shards=shards, executor=EXECUTOR, pool=HAS_FORK
        ) as pooled:
            warm = pooled.run_switch(trace, chunk_size=chunk_size)  # warmup
            assert warm == reference, "warm pool diverged from the oracle"
            t0 = time.perf_counter()
            for __ in range(repeats):
                warm = pooled.run_switch(trace, chunk_size=chunk_size)
            pool_s = time.perf_counter() - t0
        assert warm == result == reference, "repeated runs diverged"
        rows[str(shards)] = {
            "fork_per_run_s": fork_s / repeats,
            "pool_per_run_s": pool_s / repeats,
            "repeat_speedup": fork_s / max(pool_s, 1e-12),
            "pool_pkt_per_s": repeats * len(trace) / max(pool_s, 1e-12),
        }
    multi = [row for key, row in rows.items() if key != "1"]
    return {
        "n_packets": int(len(trace)),
        "repeats": int(repeats),
        "chunk_size": int(chunk_size),
        "host_cpus": int(available_parallelism()),
        "executor": EXECUTOR,
        "shards": rows,
        "repeat_speedup": max(
            (r["repeat_speedup"] for r in multi), default=1.0
        ),
        "pool_pkt_per_s": max(
            (r["pool_pkt_per_s"] for r in multi), default=0.0
        ),
    }


def _report(name: str, payload: dict) -> None:
    table = render_table(
        f"Warm shard pool vs run-scoped workers ({name}): "
        f"{payload['n_packets']} packets x {payload['repeats']} runs, "
        f"{payload['host_cpus']} host CPU(s), executor={payload['executor']}",
        ["shards", "fork-per-run s/run", "warm pool s/run", "speedup"],
        [
            [
                shards,
                f"{row['fork_per_run_s']*1e3:.1f} ms",
                f"{row['pool_per_run_s']*1e3:.1f} ms",
                f"{row['repeat_speedup']:.2f}x",
            ]
            for shards, row in payload["shards"].items()
        ],
    )
    print("\n" + table)
    write_result("pool_runtime", table)


@pytest.mark.smoke
def test_pool_runtime_smoke(experiment, bench_json):
    """Tier-1-safe: a warm 2-shard pool beats run-scoped workers on a
    small trace, bit/stat-identically."""
    live = experiment.workload.live
    trace = expand_to_packets(
        live,
        feature_matrix=dnn_feature_matrix(live),
        max_packets=1500,
        seed=41,
    )
    result = _measure(
        experiment.dataplane.quantized, trace, (1, 2), repeats=4
    )
    bench_json("pool_runtime", {"smoke": result})
    _report("smoke", result)
    if HAS_FORK:
        assert result["repeat_speedup"] > 1.2


@pytest.mark.bench
def test_pool_runtime_full(experiment, bench_json):
    """Opt-in: shards ∈ {1, 2, 4}, more repeats, a larger small-trace mix.

    Asserts the acceptance bar — repeated warm-pool runs beat forking
    per run on wall-clock — with identity held at every shard count.
    """
    live = experiment.workload.live
    trace = expand_to_packets(
        live,
        feature_matrix=dnn_feature_matrix(live),
        max_packets=6000,
        seed=42,
    )
    result = _measure(
        experiment.dataplane.quantized, trace, (1, 2, 4), repeats=8
    )
    bench_json("pool_runtime", {"full_trace": result})
    _report("full trace", result)
    if HAS_FORK:
        assert result["repeat_speedup"] > 1.2
