"""The three end-to-end phases every workload runs, plus set-up timing.

* **replay** — closed loop, in process: one serial single-shard runtime
  (``MultiAppFabric(shards=1)`` for two apps).  What
  ``TaurusDataPlane.run_switch`` users get.
* **drain** — closed loop, full stack: the whole backlog submitted to an
  ``InferenceService`` over the 2-worker fork pool, then ``pump()`` timed
  until dry.
* **serve** — open loop, full stack: a started service receives the frozen
  bursty schedule at the workload's frozen rate; time-to-decision runs
  from each request's *due* time.

The phases run in rounds so each metric samples the whole run: replay
passes while no pool is alive (idle pool workers and their heartbeat
threads measurably slow an in-process pass), then a cold build of the full
stack (one ``setup_s`` sample), one serve window on it, drain passes on the
same pool, and teardown.

**Estimators.**  The benchmark host is a shared 2-vCPU VM whose speed drops
by 20-40 % for stretches of milliseconds to minutes (CPU time rises with
wall time: contention, not descheduling); that noise only ever adds time.
A closed-loop rate is therefore packets over the *fastest* of many short
passes (what ``timeit`` recommends for the same reason): ten-seed sweeps
put its run-to-run spread at 5-18 % where the fast decile ranged up to
43 % and the median higher still.  Every serve window replays the same
arrival schedule, so each arrival has one time-to-decision per round, and
the percentiles are taken over the mean of each arrival's two fastest
rounds: a slow stretch that hits different arrivals in different rounds
moves neither.

Each phase verifies its own outputs against the oracle and reports
``(attempted, failed)`` operations alongside its timings.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.runtime import InferenceService

import loadgen
from verify import Oracle, SimDigest, pass_mismatches, served_mismatches
from workloads import POOL, QUEUE_DEPTH, SHARDS, Backend, Inputs, client_specs

ROUNDS = 10
#: Cold builds timed before the rounds, on top of one per round.
EXTRA_BUILDS = 10
#: Share of ``--seconds`` each phase measures for (the rest is set-up).
SHARES = {"replay": 0.2, "drain": 0.35, "serve": 0.37}


@dataclass
class Tally:
    """Operations checked and operations that failed their check."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def peak_rss_mb() -> float:
    """Parent high-water RSS plus the largest reaped child's (Linux: KiB)."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def build_service(inputs: Inputs, backend: Backend, depth: int):
    """A service in front of ``backend``; the caller closes both."""
    return InferenceService(
        backend.obj,
        client_specs(inputs, depth),
        chunk_size=inputs.workload.chunk,
        own_backend=False,
    )


def add_health(total: dict[str, int], backend: Backend) -> None:
    """Accumulate a pooled backend's ``PoolHealth`` failure counters."""
    for name in ("crashes", "replayed_chunks", "degraded_chunks"):
        total[name] = total.get(name, 0) + getattr(backend.health, name)


def cold_build(inputs: Inputs, queue_depth: int = QUEUE_DEPTH):
    """The full stack from generated inputs: compiled blocks, pipelines,
    forked pool, started service.  Returns (seconds, backend, service)."""
    t0 = time.perf_counter()
    backend = Backend(inputs, SHARDS, pool=POOL)
    service = build_service(inputs, backend, queue_depth).start()
    return time.perf_counter() - t0, backend, service


def setup_phase(inputs: Inputs, builds: int) -> list[float]:
    """``builds`` cold builds; teardown is outside the timer."""
    samples = []
    for __ in range(builds):
        elapsed, backend, service = cold_build(inputs)
        samples.append(elapsed)
        service.close()
        backend.close()
    return samples


def replay_pass(inputs: Inputs, traces: dict, check=None) -> float:
    """One in-process pass over ``traces``; returns wall seconds.

    ``check=(digest, tally)`` also verifies the pass against the oracle.
    """
    backend = Backend(inputs, shards=1)  # fresh registers, outside the timer
    t0 = time.perf_counter()
    results = backend.run(traces)
    elapsed = time.perf_counter() - t0
    if check is not None:
        digest, tally = check
        bad = pass_mismatches(Oracle(inputs), results, backend.state(), traces)
        tally.add(len(traces) + 1, (len(traces) + 1) if bad else 0)
        digest.add_pass("replay", results, backend)
    return elapsed


def submit_backlog(service, chunks: dict[str, list]) -> tuple[dict, list[float]]:
    """Every chunk of every client, interleaved; returns what each request
    id carries and how long each ``submit`` took."""
    carried, submit_s = {}, []
    for i in range(max(len(pool) for pool in chunks.values())):
        for client, pool in chunks.items():
            if i < len(pool):
                t0 = time.perf_counter()
                admission = service.submit(client, pool[i])
                submit_s.append(time.perf_counter() - t0)
                if not admission.accepted:
                    raise RuntimeError(f"backlog submit refused: {admission}")
                carried[admission.request_id] = (client, pool[i])
    return carried, submit_s


def drain_once(inputs: Inputs, backend: Backend, chunks: dict[str, list]):
    """One rewound backlog drain: (wall seconds of ``pump``, served records,
    per-submit seconds, requests submitted)."""
    backend.rewind()
    depth = max(len(pool) for pool in chunks.values())
    service = build_service(inputs, backend, depth)
    try:
        carried, submit_s = submit_backlog(service, chunks)
        t0 = time.perf_counter()
        service.pump()
        elapsed = time.perf_counter() - t0
        records = service.take_results()
    finally:
        service.close()
    clients = inputs.clients()
    served = [
        (r.seq, clients[r.client], carried[r.request_id][1], r.result)
        for r in records
        if r.status == "completed"
    ]
    return elapsed, served, submit_s, len(carried)


def drain_pass(inputs: Inputs, backend: Backend, chunks: dict, check=None) -> float:
    """One backlog drain; returns the wall seconds of ``pump``."""
    elapsed, served, __, requests = drain_once(inputs, backend, chunks)
    if check is not None:
        digest, tally = check
        bad = (requests - len(served)) + served_mismatches(
            Oracle(inputs), served, backend.state()
        )
        tally.add(requests, requests if bad else 0)
        for seq, app, __, result in sorted(served, key=lambda item: item[0]):
            digest.add(f"drain.{seq}.{app}", result.latencies_ns)
        digest.add("drain", [s.get("block_issue_cycles", 0) for s in backend.state().values()])
    return elapsed


def passes_for(budget_s: float, one_pass, toy: bool) -> list[float]:
    """Timed passes until ``budget_s`` of wall time is spent (at least one)."""
    times, deadline = [], time.perf_counter() + budget_s
    while not times or (not toy and time.perf_counter() < deadline):
        times.append(one_pass())
    return times


def end_to_end(inputs: Inputs, seconds: float, toy: bool,
               digest: SimDigest, tally: Tally) -> dict:
    """Set-up, replay, drain and serve, interleaved in rounds."""
    rounds = 1 if toy else ROUNDS
    budget = {phase: share * seconds / rounds for phase, share in SHARES.items()}
    traces = inputs.pass_traces()
    chunks = inputs.client_chunks(traces)
    packets = sum(cols.n for cols in traces.values())
    schedule = loadgen.frozen_schedule(inputs, budget["serve"])

    setup_s = setup_phase(inputs, 0 if toy else EXTRA_BUILDS)
    replay_pass(inputs, traces, check=(digest, tally))  # verified warm-up
    replay_s, drain_s, windows = [], [], []
    health: dict[str, int] = {}
    for index in range(rounds):
        replay_s.append(passes_for(budget["replay"], lambda: replay_pass(inputs, traces), toy))
        elapsed, backend, service = cold_build(inputs)
        setup_s.append(elapsed)
        with backend:
            windows.append(serve_window(inputs, backend, service, schedule, digest, tally))
            if index == 0:  # verified warm-up
                drain_pass(inputs, backend, chunks, check=(digest, tally))
            drain_s.append(
                passes_for(budget["drain"], lambda: drain_pass(inputs, backend, chunks), toy)
            )
            add_health(health, backend)
    return {
        "setup_s": float(np.median(setup_s)),
        "replay_pkt_per_s": packets / min(sum(replay_s, [])),
        "drain_pkt_per_s": packets / min(sum(drain_s, [])),
        "setup_samples_s": setup_s,
        "replay_pass_s": replay_s,
        "drain_pass_s": drain_s,
        "pass_packets": packets,
        "drain_requests": sum(len(pool) for pool in chunks.values()),
        "serve": {**summarize_serve(inputs, windows), **health},
    }


def serve_window(inputs: Inputs, backend: Backend, service, schedule: list,
                 digest: SimDigest, tally: Tally) -> dict:
    """One open-loop window on a freshly built stack: the schedule, a drain
    at the end, a full identity check of what was served.  Closes
    ``service``."""
    chunks = inputs.client_chunks(inputs.traces)
    try:
        report = loadgen.run_open_loop(service, schedule, chunks)
        service.drain(timeout=60.0)
        records = service.take_results()
        stats = service.stats()
    finally:
        service.close()

    offered = {o.admission.request_id: o for o in report.offered}
    clients = inputs.clients()
    completed = [r for r in records if r.status == "completed"]
    served = [
        (r.seq, clients[r.client], chunks[r.client][offered[r.request_id].chunk], r.result)
        for r in completed
    ]
    # State is only comparable when nothing was refused or lost on the way.
    clean = len(completed) == len(report.offered)
    mismatches = served_mismatches(
        Oracle(inputs), served, backend.state() if clean else None
    )
    failed = min((len(report.offered) - len(completed)) + mismatches, len(report.offered))
    tally.add(len(report.offered), failed)

    for r in sorted(completed, key=lambda r: r.request_id):
        digest.add(f"serve.{r.request_id}", r.result.latencies_ns)
    digest.add("serve", stats.submitted, stats.packets_out)
    # One time-to-decision per arrival, in schedule order; a request that
    # was refused, lost or failed never got a decision.
    decided = {r.request_id: r.decided_at for r in completed}
    return {
        "decision_ms": [
            (decided[o.admission.request_id] - o.due) * 1e3
            if o.admission.request_id in decided
            else float("inf")
            for o in report.offered
        ],
        "lag_ms": (report.lag_s * 1e3).tolist(),
        "offered": len(report.offered),
        "failed": failed,
        "backlog_end": report.backlog_end,
        **{name: getattr(stats, name)
           for name in ("submitted", "accepted", "shed", "deferred", "expired", "completed")},
        "requests": [
            (offered[r.request_id].due, r.decided_at, r.request_id, r.client, r.seq)
            for r in completed
        ],
    }


def percentile(values: np.ndarray, q: float) -> float:
    """``q``-th percentile without interpolating (``inf`` stays ``inf``)."""
    return float(np.percentile(values, q, method="higher"))


def summarize_serve(inputs: Inputs, windows: list[dict]) -> dict:
    """Windows of one schedule -> the run's figures: percentiles over the
    mean of each arrival's two fastest rounds (p99 and the limit share:
    pooled over every window).  Sorting keeps a never-decided ``inf`` out
    of the arithmetic unless it is among the two."""
    decision = np.array([w["decision_ms"] for w in windows])  # rounds x arrivals
    per_arrival = np.sort(decision, axis=0)[:2].mean(axis=0)
    lag = np.array([ms for w in windows for ms in w["lag_ms"]])
    offered = sum(w["offered"] for w in windows)
    p50 = percentile(per_arrival, 50)
    lag_p50 = float(np.median(lag))
    return {
        "decision_p50_ms": p50,
        "decision_p90_ms": percentile(per_arrival, 90),
        "decision_p99_ms": percentile(decision.ravel(), 99),
        "decision_ms": decision.tolist(),
        "samples": int(np.isfinite(decision).sum()),
        # A refused or failed request counts as missing the limit.
        "within_limit_frac": float(
            np.count_nonzero(decision <= inputs.workload.decision_limit_ms)
        ) / offered,
        "backlog_end": float(np.median([w["backlog_end"] for w in windows])),
        "gen_lag_p99_ms": float(np.percentile(lag, 99)),
        "gen_lag_p50_ms": lag_p50,
        "lag_ok": lag_p50 <= loadgen.MAX_LAG_SHARE * p50,
        "offered": offered,
        "serve_failed": sum(w["failed"] for w in windows),
        **{name: sum(w[name] for w in windows)
           for name in ("submitted", "accepted", "shed", "deferred", "expired", "completed")},
        "requests": [request for w in windows for request in w["requests"]],
    }


def serve_phase(inputs: Inputs, duration_s: float, windows: int, digest: SimDigest,
                tally: Tally, queue_depth: int = QUEUE_DEPTH,
                offered_req_per_s: float | None = None) -> dict:
    """``windows`` serve windows, each on its own cold build, summarised."""
    schedule = loadgen.frozen_schedule(inputs, duration_s / windows, offered_req_per_s)
    served = []
    health: dict[str, int] = {}
    for __ in range(windows):
        __, backend, service = cold_build(inputs, queue_depth)
        with backend:
            served.append(serve_window(inputs, backend, service, schedule, digest, tally))
            add_health(health, backend)
    return {**summarize_serve(inputs, served), **health}
