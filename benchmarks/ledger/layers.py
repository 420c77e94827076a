"""The traced run: the per-layer ladder at the workload's chunk size.

Every layer is measured from outside, by timing calls into its public
entry point on the same packets at the same chunk size, so a layer's
overhead is the ratio to the layer below (``*.overhead_ratio``):

=========  =================================================================
layer      public entry timed
=========  =================================================================
mapreduce  ``DataflowGraph.execute_batch`` on each chunk's ML-bound rows
hw         ``MapReduceBlock.run_batch`` on the same rows
pisa       ``TaurusPipeline.process_trace_batch`` (each app alone)
sharded    ``ShardedRuntime(shards=2, executor="serial").process_trace``
           (two apps: ``MultiAppFabric(shards=2).run``)
pool1      the same through a 1-worker fork pool (transport, no parallelism)
pool       the same through the 2-worker fork pool
service    ``InferenceService.pump`` draining a backlog over that pool
fabric     two apps only: ``MultiAppFabric(shards=1).run`` (one shared grid)
=========  =================================================================

Passes of all layers are interleaved, in a fresh seeded order each round,
so host drift hits every layer alike; each figure is the fastest pass
(see ``phases.py`` on why not the median).  Inside ``pisa`` and ``mapreduce``
the time is attributed to stages by spans recorded *here*, around public
methods of the pipeline instance's own parser / accumulator / tables /
block (and by the graph's ``observer=`` hook); stage shares from the traced
passes are applied to the untraced layer total, so stages sum to it.
"""

from __future__ import annotations

import cProfile
import json
import pickle
import pstats
import random
import statistics
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

import repro.runtime.fabric as fabric_module
import repro.runtime.sharded as sharded_module
from repro.fixpoint import FIX8
from repro.runtime import PipelineShardWorker, ShardPool
from repro.testbed import chunk_columns

from phases import Tally, add_health, drain_once
from verify import Oracle, deep_equal, results_equal, served_mismatches
from workloads import ANOMALY, POOL, SHARDS, Backend, Inputs, oracle_pipelines

PROBE_CHUNKS = 8
#: Layers that run over a fork pool; the rest of the ladder is in process.
POOLED = ("pool1", "pool", "service")

#: Graph node kinds -> the ``mapreduce.<bucket>_us_per_pkt`` they count
#: under; structural kinds (input / const / output) are interpreter dispatch.
NODE_BUCKETS = {
    "dot": "dot",
    "mapreduce": "dot",
    "map": "map",
    "lut": "map",
    "gather": "gather",
    "reduce": "reduce",
}


class Tracer:
    """In-memory spans: (name, start, end, parent, thread, chunk id)."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []
        self.chunk = -1

    @contextmanager
    def span(self, name: str, bump: bool = False):
        if bump:
            self.chunk += 1
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                  threading.get_ident(), self.chunk]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def patch(self, owner, attr: str, name: str, bump: bool = False) -> None:
        """Wrap ``owner.attr`` in a span until :meth:`restore`."""
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        def traced(*args, **kwargs):
            with self.span(name, bump):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def totals(self, since: int = 0) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, self seconds) by span name, for spans >= ``since``."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for name, start, end, parent, __, __ in self.spans[since:]:
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + duration
            if parent >= since:
                parent_name = self.spans[parent][0]
                own[parent_name] = own.get(parent_name, 0.0) - duration
        return total, own

    def chrome_trace(self, requests=()) -> dict:
        """Chrome trace-event JSON: layer / stage spans plus one span per
        served request (due -> decided)."""
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": tid % 100_000,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"parent": parent, "chunk": chunk}}
            for name, start, end, parent, tid, chunk in self.spans
        ]
        events += [
            {"name": "request", "ph": "X", "pid": 2, "tid": hash(client) % 1000,
             "ts": due * 1e6, "dur": (decided - due) * 1e6,
             "args": {"request": rid, "client": client, "seq": seq}}
            for due, decided, rid, client, seq in requests
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def count_calls(fn) -> int:
    """Exact number of Python function calls made while ``fn()`` runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def ml_rows(inputs: Inputs, reference: dict, traces: dict) -> dict[str, list[np.ndarray]]:
    """Per app, each chunk's ML-bound feature rows as the block receives
    them: fix8-formatted at the PHV boundary (``PHVBatch.feature_matrix``)."""
    chunk = inputs.workload.chunk
    rows = {}
    for app, cols in traces.items():
        ml = ~reference[app].bypassed
        features = FIX8.roundtrip(np.clip(cols.features, FIX8.min_value, FIX8.max_value))
        rows[app] = [
            part
            for start in range(0, cols.n, chunk)
            if len(part := features[start : start + chunk][ml[start : start + chunk]])
        ]
    return rows


def graph_breakdown(graphs: dict, rows: dict) -> dict[str, float]:
    """Seconds per node bucket over one observed pass (``observer=`` hook)."""
    buckets = dict.fromkeys(("dot", "map", "gather", "reduce", "dispatch"), 0.0)
    for app, graph in graphs.items():
        for block_rows in rows[app]:
            last = [time.perf_counter()]
            spent = dict.fromkeys(buckets, 0.0)

            def observer(node, value, iteration):
                now = time.perf_counter()
                spent[NODE_BUCKETS.get(node.kind, "dispatch")] += now - last[0]
                last[0] = now

            t0 = last[0]
            graph.execute_batch(block_rows, observer=observer)
            total = time.perf_counter() - t0
            # Whatever the node deltas do not cover (entry copy, topo order,
            # result normalisation) is dispatch too.
            spent["dispatch"] += total - sum(spent.values())
            for name, seconds in spent.items():
                buckets[name] += seconds
    return buckets


def transport_probe(inputs: Inputs, traces: dict) -> dict:
    """What crosses the pipe per chunk, computed in process: pickled request
    and response (+ ``state_delta``) sizes, and the parent-side cost of
    ``apply_state_delta`` — the worker protocol's public ``handle`` side."""
    request, response, apply_s = [], [], []
    workers, parents = oracle_pipelines(inputs), oracle_pipelines(inputs)
    for app, cols in traces.items():
        context = PipelineShardWorker(workers[app])
        for part in chunk_columns(cols, inputs.workload.chunk)[:32]:
            payload = (part, True)
            request.append(len(pickle.dumps(("chunk", payload), pickle.HIGHEST_PROTOCOL)))
            answer = context.handle("chunk", payload)
            response.append(len(pickle.dumps(("ok", answer), pickle.HIGHEST_PROTOCOL)))
            t0 = time.perf_counter()
            parents[app].apply_state_delta(answer[1])
            apply_s.append(time.perf_counter() - t0)
    return {
        "pool.request_bytes_per_chunk": statistics.median(request),
        "pool.response_bytes_per_chunk": statistics.median(response),
        "pool.apply_delta_us_per_chunk": statistics.median(apply_s) * 1e6,
    }


def spawn_probe(inputs: Inputs) -> float:
    """Seconds to fork the 2-worker pool around already-built pipelines."""
    pipes = [pipe for __ in range(SHARDS) for pipe in oracle_pipelines(inputs).values()]
    contexts = [PipelineShardWorker(pipe) for pipe in pipes[:SHARDS]]
    t0 = time.perf_counter()
    pool = ShardPool(contexts, mode=POOL)
    elapsed = time.perf_counter() - t0
    pool.close()
    return elapsed


def reconfig_probe(inputs: Inputs) -> float:
    """Median host microseconds of one accounted program swap."""
    pipes = oracle_pipelines(inputs)
    block = pipes[ANOMALY].block
    graphs = [pipe.block.graph for pipe in pipes.values()]
    samples = []
    for i in range(1, 41):
        t0 = time.perf_counter()
        block.reconfigure(graphs[i % len(graphs)], account=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def profile_probe(inputs: Inputs, traces: dict) -> dict:
    """cProfile + exact call counts over the first chunks of each trace."""
    chunk = inputs.workload.chunk
    subs = {
        app: cols.slice(slice(0, min(cols.n, PROBE_CHUNKS * chunk)))
        for app, cols in traces.items()
    }
    chunks = sum(-(-sub.n // chunk) for sub in subs.values())

    def replay(pipes):
        for app, sub in subs.items():
            pipes[app].process_trace_batch(sub, chunk_size=chunk)

    profile = cProfile.Profile()
    profile.runcall(replay, oracle_pipelines(inputs))
    stats = pstats.Stats(profile).stats
    total = linear = quantize_calls = 0.0
    for (filename, __, name), (__, ncalls, __, cumulative, __) in stats.items():
        path = filename.replace("\\", "/")
        if name == "replay" and path.endswith("ledger/layers.py"):
            total = cumulative
        elif name == "linear" and path.endswith("fixpoint/quantize.py"):
            linear += cumulative
        elif name == "quantize" and path.endswith("fixpoint/formats.py"):
            quantize_calls += ncalls
    pipes = oracle_pipelines(inputs)
    return {
        "fixpoint.linear_share": linear / total,
        "fixpoint.quantize_calls_per_chunk": quantize_calls / chunks,
        "pisa.calls_per_chunk": count_calls(lambda: replay(pipes)) / chunks,
    }


def traced_pisa_pass(inputs: Inputs, traces: dict, tracer: Tracer) -> float:
    """One ``pisa`` pass with stage spans installed; returns wall seconds."""
    pipes = oracle_pipelines(inputs)
    for pipe in pipes.values():
        tracer.patch(pipe.parser, "parse_batch", "pisa.parse", bump=True)
        tracer.patch(pipe.accumulator, "update_batch", "pisa.registers")
        for table in (*pipe.preprocess_tables, *pipe.postprocess_tables):
            tracer.patch(table, "apply_batch", "pisa.mat")
        tracer.patch(pipe.block, "run_batch", "pisa.block")
    chunk = inputs.workload.chunk
    try:
        t0 = time.perf_counter()
        for app, cols in traces.items():
            with tracer.span("pisa"):
                pipes[app].process_trace_batch(cols, chunk_size=chunk)
        return time.perf_counter() - t0
    finally:
        tracer.restore()


def traced_sharded_pass(inputs: Inputs, traces: dict, tracer: Tracer) -> None:
    """One ``sharded`` pass with partition / merge spans installed."""
    backend = Backend(inputs, SHARDS)
    module = fabric_module if inputs.workload.multi_app else sharded_module
    for cols in traces.values():
        tracer.patch(cols, "shard_assignments", "sharded.partition")
        tracer.patch(cols, "partition", "sharded.partition")
    tracer.patch(module, "scatter_merge", "sharded.merge")
    try:
        with tracer.span("sharded"):
            backend.run(traces)
            with tracer.span("sharded.merge"):
                backend.state()
    finally:
        tracer.restore()


def run_ladder(inputs: Inputs, budget_s: float, min_rounds: int, tracer: Tracer,
               tally: Tally) -> dict:
    """All per-layer metrics except the ``service.*`` serve-phase ones."""
    workload = inputs.workload
    chunk = workload.chunk
    traces = inputs.pass_traces()
    packets = sum(cols.n for cols in traces.values())
    n_chunks = sum(-(-cols.n // chunk) for cols in traces.values())
    oracle = Oracle(inputs)
    reference = {app: oracle.replay(app, cols) for app, cols in traces.items()}
    reference_state = oracle.state()
    rows = ml_rows(inputs, reference, traces)
    n_ml = sum(len(part) for parts in rows.values() for part in parts)
    client_chunks = inputs.client_chunks(traces)

    rewind_s: list[float] = []
    submit_s: list[float] = []

    def check(ok: bool) -> None:
        tally.add(1, int(not ok))

    def scores_match(app, values_per_chunk) -> bool:
        got = np.concatenate([v[:, 0] for v in values_per_chunk]) if values_per_chunk else []
        want = reference[app].ml_scores[~reference[app].bypassed]
        return np.array_equal(got, want)

    def mapreduce(verify: bool) -> float:
        graphs = {app: pipe.block.graph for app, pipe in oracle_pipelines(inputs).items()}
        t0 = time.perf_counter()
        values = {app: [graphs[app].execute_batch(r) for r in rows[app]] for app in rows}
        elapsed = time.perf_counter() - t0
        if verify:
            check(all(scores_match(app, values[app]) for app in rows))
        return elapsed

    def hw(verify: bool) -> float:
        blocks = {app: pipe.block for app, pipe in oracle_pipelines(inputs).items()}
        t0 = time.perf_counter()
        values = {app: [blocks[app].run_batch(r).values for r in rows[app]] for app in rows}
        elapsed = time.perf_counter() - t0
        if verify:
            check(all(scores_match(app, values[app]) for app in rows))
        return elapsed

    def pisa(verify: bool) -> float:
        pipes = oracle_pipelines(inputs)
        t0 = time.perf_counter()
        results = {
            app: pipes[app].process_trace_batch(cols, chunk_size=chunk)
            for app, cols in traces.items()
        }
        elapsed = time.perf_counter() - t0
        if verify:
            check(all(results_equal(results[app], reference[app]) for app in traces))
        return elapsed

    def through(backend: Backend, verify: bool) -> float:
        if backend.health is not None:
            t0 = time.perf_counter()
            backend.rewind()
            rewind_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        results = backend.run(traces)
        elapsed = time.perf_counter() - t0
        if verify:
            check(
                all(results_equal(results[app], reference[app]) for app in traces)
                and deep_equal(backend.state(), reference_state)
            )
        return elapsed

    def service(pool2: Backend, verify: bool) -> float:
        elapsed, served, submits, requests = drain_once(inputs, pool2, client_chunks)
        submit_s.extend(submits)
        if verify:
            check(
                len(served) == requests
                and served_mismatches(Oracle(inputs), served, pool2.state()) == 0
            )
        return elapsed

    in_process = {
        "mapreduce": mapreduce,
        "hw": hw,
        "pisa": pisa,
        # The same pass with stage spans on, in the same rotation, so the
        # tracing overhead is measured under the same conditions.
        "pisa.traced": lambda verify: traced_pisa_pass(inputs, traces, tracer),
        "sharded": lambda verify: through(Backend(inputs, SHARDS), verify),
    }
    if workload.multi_app:
        in_process["fabric"] = lambda verify: through(Backend(inputs, 1), verify)
    times: dict[str, list[float]] = {name: [] for name in (*in_process, *POOLED)}
    health: dict[str, int] = {}
    order = random.Random(inputs.seed)

    def one_round(verify: bool) -> None:
        """Every layer once, in a fresh seeded order so no layer always
        runs after the same one.  The in-process layers run while no pool
        is alive: idle pool workers measurably slow an in-process pass."""
        for name in order.sample(list(in_process), len(in_process)):
            with tracer.span(f"layer.{name}"):
                times[name].append(in_process[name](verify))
        pool1 = Backend(inputs, 1, pool=POOL)
        pool2 = Backend(inputs, SHARDS, pool=POOL)
        pooled = {
            "pool1": lambda: through(pool1, verify),
            "pool": lambda: through(pool2, verify),
            "service": lambda: service(pool2, verify),
        }
        try:
            for name in order.sample(POOLED, len(POOLED)):
                with tracer.span(f"layer.{name}"):
                    times[name].append(pooled[name]())
            add_health(health, pool1)
            add_health(health, pool2)
        finally:
            # Newest first: pool2's workers were forked while pool1's pipes
            # were open and hold copies of them, so pool1's workers only see
            # EOF (and exit without waiting out the kill timeout) once
            # pool2's are gone.
            pool2.close()
            pool1.close()

    one_round(verify=True)  # warm-up, checked against the oracle
    for samples in times.values():
        samples.clear()
    since = len(tracer.spans)
    deadline = time.perf_counter() + budget_s
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        one_round(verify=False)
        rounds += 1

    layer_s = {name: min(samples) for name, samples in times.items()}
    us = {
        name: layer_s[name] * 1e6 / (n_ml if name in ("mapreduce", "hw") else packets)
        for name in layer_s
    }
    ml_frac = n_ml / packets

    # ---- stage attribution from traced passes ------------------------
    graphs = {app: pipe.block.graph for app, pipe in oracle_pipelines(inputs).items()}
    buckets = graph_breakdown(graphs, rows)
    bucket_total = sum(buckets.values())
    probe_rows = {app: parts[:PROBE_CHUNKS] for app, parts in rows.items()}
    probe_chunks = sum(len(parts) for parts in probe_rows.values())
    graph_calls = count_calls(
        lambda: [graphs[app].execute_batch(r) for app in probe_rows for r in probe_rows[app]]
    )

    total, own = tracer.totals(since)
    pisa_total = total["pisa"]
    stage = {
        "parse": total.get("pisa.parse", 0.0),
        "registers": total.get("pisa.registers", 0.0),
        "mat": total.get("pisa.mat", 0.0),
        "block": total.get("pisa.block", 0.0),
        "glue": own["pisa"],
    }

    since = len(tracer.spans)
    traced_sharded_pass(inputs, traces, tracer)
    sharded_total, __ = tracer.totals(since)

    if workload.multi_app:
        lane_packets = [cols.n for cols in traces.values()]
    else:
        cols = traces[ANOMALY]
        slots = oracle_pipelines(inputs)[ANOMALY].accumulator.packet_count.size
        lane_packets = [
            len(indices)
            for indices, __ in cols.partition(cols.shard_assignments(SHARDS, slots), SHARDS)
        ]
    skew = max(lane_packets) / statistics.mean(lane_packets)

    metrics = {
        "mapreduce.us_per_pkt": us["mapreduce"],
        **{
            f"mapreduce.{name}_us_per_pkt": us["mapreduce"] * seconds / bucket_total
            for name, seconds in buckets.items()
        },
        "mapreduce.calls_per_chunk": graph_calls / probe_chunks,
        "hw.us_per_pkt": us["hw"],
        "hw.overhead_ratio": us["hw"] / us["mapreduce"],
        "pisa.us_per_pkt": us["pisa"],
        "pisa.overhead_ratio": us["pisa"] / (us["hw"] * ml_frac),
        **{
            f"pisa.{name}_us_per_pkt": us["pisa"] * seconds / pisa_total
            for name, seconds in stage.items()
        },
        "pisa.ml_frac": ml_frac,
        "sharded.us_per_pkt": us["sharded"],
        "sharded.overhead_ratio": us["sharded"] / us["pisa"],
        "sharded.partition_us_per_pkt": sharded_total.get("sharded.partition", 0.0)
        * 1e6 / packets,
        "sharded.merge_us_per_pkt": sharded_total.get("sharded.merge", 0.0) * 1e6 / packets,
        "sharded.shard_skew": skew,
        "pool1.us_per_pkt": us["pool1"],
        "pool.us_per_pkt": us["pool"],
        "pool.overhead_ratio": us["pool"] / us["sharded"],
        "pool.transport_us_per_chunk": (us["pool1"] - us["pisa"]) * packets / n_chunks,
        "pool.spawn_s": spawn_probe(inputs),
        "pool.rewind_us": statistics.median(rewind_s) * 1e6,
        **{f"pool.{name}": count for name, count in health.items()},
        "service.us_per_pkt": us["service"],
        "service.overhead_ratio": us["service"] / us["pool"],
        "service.submit_us": statistics.median(submit_s) * 1e6,
        "trace.overhead_frac": layer_s["pisa.traced"] / layer_s["pisa"] - 1.0,
        # Two-app workloads only; null elsewhere (kept out of BENCHMARK.json).
        "fabric.us_per_pkt": us.get("fabric"),
        "fabric.overhead_ratio": us["fabric"] / us["pisa"] if "fabric" in us else None,
        "fabric.lane_skew": skew if workload.multi_app else None,
        "hw.reconfigurations": None,
        "hw.reconfig_us_per_swap": None,
    }
    metrics.update(transport_probe(inputs, traces))
    metrics.update(profile_probe(inputs, traces))
    if workload.multi_app:
        shared = Backend(inputs, 1)
        shared.run(traces)
        metrics["hw.reconfigurations"] = shared.reconfigurations
        metrics["hw.reconfig_us_per_swap"] = reconfig_probe(inputs)
    metrics["ladder.rounds"] = rounds
    return metrics


def write_chrome_trace(path, tracer: Tracer, requests) -> None:
    with open(path, "w") as handle:
        json.dump(tracer.chrome_trace(requests), handle)
