"""Quickstart: per-packet anomaly detection on a Taurus switch.

Trains the paper's anomaly-detection DNN (6 KDD features -> 12/6/3 hidden
-> sigmoid), quantizes it to the fix8 datapath, lowers it onto the
MapReduce fabric, and pushes packets through the full PISA pipeline.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import AnomalyDetector
from repro.datasets import expand_to_packets, generate_connections


def main() -> None:
    # 1. Train + quantize + lower + deploy, in one call.
    print("training the anomaly-detection DNN ...")
    detector = AnomalyDetector.from_dataset(n_connections=5000, epochs=20, seed=0)

    # 2. Offline model quality (the paper's F1 ~ 0.71).
    held_out = generate_connections(3000, seed=99)
    scores = detector.offline_scores(held_out)
    print(f"offline F1 (float32): {scores['f1_float']:.3f}")
    print(f"offline F1 (fix8)   : {scores['f1_fix8']:.3f}   <- what the fabric runs")
    print(f"detection rate      : {scores['detection_fix8']:.3f}")

    # 3. Hardware cost of the deployed model (a Table 5 row).
    design = detector.block.design
    print(f"\ncompiled design: {design.n_cu} CUs + {design.n_mu} MUs")
    print(f"  latency    : {design.latency_ns:.0f} ns  (paper: 221 ns)")
    print(f"  area       : {design.area_mm2:.2f} mm^2 (paper: 1.0 mm^2)")
    print(f"  throughput : {design.throughput_gpkt_s:.1f} GPkt/s (line rate)")

    # 3b. Static verification: the same graph the fabric runs, checked
    #     before deployment — widths, structure, fixed-point discipline,
    #     kernel-vs-nodes identity (`python -m repro.analysis` runs this
    #     over everything the repo ships; the CU/MU budget is what
    #     compile_graph checked in step 1).  Warnings/errors would fail
    #     CI's lint gate.
    from repro.analysis import verify_graph, worst_severity

    diags = verify_graph(detector.block.graph)
    worst = worst_severity(diags)
    print(f"static verification: {len(diags)} finding(s), worst: {worst}")
    for diag in diags:
        print(f"  {diag.format()}")

    # 3c. Abstract interpretation: proven per-node value intervals (the
    #     saturation/overflow gate CI runs).
    from repro.analysis import analyze_ranges

    graph = detector.block.graph
    report = analyze_ranges(graph)
    out_iv = report.intervals[graph.outputs()[0].node_id]
    print(f"range analysis: {report.passes} pass(es), "
          f"proven output interval {out_iv}")

    # 4. Push real packets through the switch pipeline — the whole trace
    #    transits the batched PISA path (vectorized parse, flow registers,
    #    MATs, chunked MapReduce scoring) in one call.
    trace = expand_to_packets(held_out, max_packets=2000, seed=7)
    print(f"\nprocessing {len(trace)} packets through the batched pipeline ...")
    outcome = detector.pipeline.process_trace_batch(trace)
    labels = trace.columns().labels[outcome.order]
    flagged_mask = outcome.decisions != 0
    flagged = int(np.count_nonzero(flagged_mask))
    correct = int(labels[flagged_mask].sum())
    print(f"flagged {flagged} packets ({correct} truly anomalous)")
    print(f"added latency per ML packet: {detector.added_latency_ns:.0f} ns")
    print("non-ML packets would take the bypass path at zero added latency")

    # 5. Scale out: the same trace, sharded flow-consistently across four
    #    parallel pipeline/block workers (bit-identical results; modeled
    #    drain shows four fabrics draining concurrently).
    from repro.testbed import TaurusDataPlane

    single = TaurusDataPlane(detector.quantized)
    sharded = TaurusDataPlane(detector.quantized, shards=4)
    print(f"\nsharded replay across {sharded.shards} pipeline workers ...")
    result_1 = single.run_switch(trace)
    result_4 = sharded.run_switch(trace)
    assert result_1 == result_4, "sharded replay must be bit-identical"
    print(f"detection {result_4.detected_percent:.1f}% (identical at 1 and 4 shards)")
    print(
        f"modeled trace drain: {single.last_modeled_drain_ns / 1e3:.1f} us -> "
        f"{sharded.last_modeled_drain_ns / 1e3:.1f} us with 4 parallel blocks"
    )

    # 6. Multi-app fabric: a second model (the Indigo congestion LSTM)
    #    shares the same switch.  Each app keeps its own pipelines and
    #    registers; only the MapReduce grid is time-multiplexed, with
    #    program swaps billed to the modeled issue clock.
    from repro.datasets import CongestionTraceConfig, congestion_packet_trace
    from repro.ml import indigo_lstm
    from repro.runtime import FabricApp

    cfg = CongestionTraceConfig()
    two_lane = TaurusDataPlane(detector.quantized, shards=2)
    apps = [
        two_lane.anomaly_app(),
        FabricApp.from_lstm(
            indigo_lstm(seed=0), window_steps=cfg.window_steps, name="congestion"
        ),
    ]
    congestion_trace = congestion_packet_trace(200, cfg, seed=1)
    print("\ntwo apps on one switch (anomaly DNN + congestion LSTM) ...")
    shared_grid = TaurusDataPlane(detector.quantized, shards=1)
    one = shared_grid.run_multi(apps, [trace, congestion_trace])
    two = two_lane.run_multi(apps, [trace, congestion_trace])
    assert all(
        (one.results[name].decisions == two.results[name].decisions).all()
        for name in one.results
    ), "per-app results are independent of the lane layout"
    print(
        f"one shared grid : {one.reconfigurations} program swaps, "
        f"drain {one.drain_ns / 1e3:.1f} us"
    )
    print(
        f"two affine lanes: {two.reconfigurations} program swaps, "
        f"drain {two.drain_ns / 1e3:.1f} us "
        f"({one.drain_ns / two.drain_ns:.2f}x the time-shared grid)"
    )
    print(
        f"anomaly flags {two.results['anomaly'].flagged} packets; congestion "
        f"issues {len(two.results['congestion'])} cwnd actions — same fabric"
    )

    # 7. Persistent shard pool: executor="fork" alone forks the workers
    #    for each run and reaps them after it; serving many (small)
    #    traces back to back, that setup dominates.  pool=True keeps the
    #    same workers warm across runs; per-run rewind keeps every result
    #    identical to a freshly forked run.
    import time

    small_traces = [
        expand_to_packets(held_out, max_packets=500, seed=s) for s in (31, 32, 33)
    ]
    per_run = TaurusDataPlane(detector.quantized, shards=2, executor="fork")
    print("\nreplaying 3 small traces, workers forked per run vs kept warm ...")
    t0 = time.perf_counter()
    cold = [per_run.run_switch(t) for t in small_traces]
    cold_s = time.perf_counter() - t0
    with TaurusDataPlane(
        detector.quantized, shards=2, executor="fork", pool=True
    ) as pooled:
        pooled.run_switch(small_traces[0])  # spawn + warm the workers
        t0 = time.perf_counter()
        warm = [pooled.run_switch(t) for t in small_traces]
        warm_s = time.perf_counter() - t0
    assert cold == warm, "warm-pool runs must match forked-per-run exactly"
    print(
        f"forked per run {cold_s * 1e3:.0f} ms -> warm pool {warm_s * 1e3:.0f} ms "
        f"({cold_s / warm_s:.1f}x) for identical results"
    )

    # 8. Crash transparency: kill a worker mid-sequence and the pool
    #    recovers it — re-fork from parent state, replay the unacked
    #    chunks — with results still identical to the unfaulted runs.
    #    FaultPlan injects the crash deterministically (worker 0 is
    #    SIGKILLed at its first chunk of the first run).
    from repro.runtime import FaultPlan

    plan = FaultPlan().add(worker=0, ordinal=0, kind="kill")
    with TaurusDataPlane(
        detector.quantized, shards=2, executor="fork", pool=True,
        pool_options={"faults": plan},
    ) as survivor:
        crashed = [survivor.run_switch(t) for t in small_traces]
        health = survivor.pool_health
    assert crashed == cold, "recovery must be invisible in the results"
    print(
        f"worker killed mid-run: {health.crashes} crash, "
        f"{health.restarts} restart, {health.replayed_chunks} chunk(s) "
        "replayed — results identical"
    )

    # 9. Always-on serving: instead of handing the runtime one finished
    #    trace, producers submit chunk-sized requests through bounded
    #    per-tenant queues and every submit gets an explicit verdict —
    #    ACCEPTED, DEFERRED (rate-limited, retry later), or SHED (queue
    #    full).  A bursty two-tenant schedule over a started service
    #    shows the envelope: admitted chunks are scored by the warm
    #    shard pool while overload is shed, not buffered without bound.
    from repro.hw import MapReduceBlock
    from repro.mapreduce import dnn_graph
    from repro.runtime import ClientSpec, InferenceService, ShardedRuntime
    from repro.testbed import bursty_schedule, chunk_columns, replay_wall

    serve_trace = expand_to_packets(held_out, max_packets=2400, seed=34)
    chunks = chunk_columns(serve_trace, 64)
    tenants = {
        "prod": [c for i, c in enumerate(chunks) if i % 2 == 0],
        "scratch": [c for i, c in enumerate(chunks) if i % 2 == 1],
    }
    plane = TaurusDataPlane(detector.quantized)
    blocks = [MapReduceBlock(dnn_graph(detector.quantized)) for _ in range(2)]
    backend = ShardedRuntime(
        lambda s: plane.build_pipeline(block=blocks[s]),
        shards=2, executor="fork", pool=True,
    )
    schedule = bursty_schedule(
        {name: len(t) for name, t in tenants.items()},
        seed=7, base_rate=1500.0, burst_factor=10.0,
    )
    print("\nserving a bursty two-tenant workload ...")
    with InferenceService(
        backend,
        [
            ClientSpec(name="prod", queue_depth=3, result_depth=len(chunks)),
            ClientSpec(name="scratch", queue_depth=2, rate=40.0, burst=4.0),
        ],
    ).start() as service:
        replay_wall(service, schedule, tenants)
        stats = service.drain()
    print(stats.summary())
    print(
        f"decision latency p50 {stats.p50_decision_s * 1e3:.1f} ms, "
        f"p99 {stats.p99_decision_s * 1e3:.1f} ms; "
        f"{stats.shed} shed + {stats.deferred} deferred of "
        f"{stats.submitted} submits — queues stayed bounded"
    )


if __name__ == "__main__":
    main()
