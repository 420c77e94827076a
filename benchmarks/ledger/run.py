"""The cost ledger: one command that prints every metric and checks outputs.

    python3 benchmarks/ledger/run.py --workload dnn_c64 --seed 0 [--seconds 25]
        [--trace [0|1]] [--out DIR] [--toy]

Without ``--workload`` all four run in turn.  ``--trace 0`` (default) runs
the three end-to-end phases untraced and prints the end-to-end metrics;
``--trace 1`` runs the per-layer ladder plus a serve phase and prints the
per-layer metrics, writing ``<out>/<workload>.trace.json`` (Chrome trace
format).  Every run writes one whole result JSON to ``--out`` and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when an identity check fails or the serve phase is invalid
(generator too late to trust).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
for path in (str(REPO / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

import layers  # noqa: E402
import phases  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 25

#: Share of ``--seconds`` each part of the traced run may measure for.
TRACED_SHARES = {"ladder": 0.45, "serve": 0.45}
TRACED_WINDOWS = 5

END_TO_END = {
    "setup_s": "s",
    "replay_pkt_per_s": "pkt/s",
    "drain_pkt_per_s": "pkt/s",
    "peak_rss_mb": "MB",
}
#: Printed and stored beside the end-to-end metrics (and judged by
#: ``compare.py``) but not bounded in BENCHMARK.json.  The open-loop
#: percentiles did not repeat within even the widest bound the contract
#: allows on the 2-vCPU host: a run that lands in one of the host's slow
#: stretches sees its utilisation double and its queue wait explode, so two
#: such runs in ten put the spread of ``decision_p50_ms`` at 35-58 % where
#: the closed-loop rates stay under 25 %.  Per the issue's own rule they are
#: ``service`` layer metrics (``service.decision_p50_ms`` / ``_p90_ms``).
#: ``failed_frac`` is exactly 0 when healthy, which the contract cannot
#: bound as a share of a median; its ``failed`` / ``attempted`` carry it.
UNBOUNDED = {"decision_p50_ms": "ms", "decision_p90_ms": "ms", "failed_frac": "frac"}

US_PKT = "us/pkt"
PER_LAYER = {
    "mapreduce.us_per_pkt": US_PKT,
    "mapreduce.dot_us_per_pkt": US_PKT,
    "mapreduce.map_us_per_pkt": US_PKT,
    "mapreduce.gather_us_per_pkt": US_PKT,
    "mapreduce.reduce_us_per_pkt": US_PKT,
    "mapreduce.dispatch_us_per_pkt": US_PKT,
    "mapreduce.calls_per_chunk": "count",
    "fixpoint.linear_share": "frac",
    "fixpoint.quantize_calls_per_chunk": "count",
    "hw.us_per_pkt": US_PKT,
    "hw.overhead_ratio": "ratio",
    "pisa.us_per_pkt": US_PKT,
    "pisa.overhead_ratio": "ratio",
    "pisa.parse_us_per_pkt": US_PKT,
    "pisa.registers_us_per_pkt": US_PKT,
    "pisa.mat_us_per_pkt": US_PKT,
    "pisa.block_us_per_pkt": US_PKT,
    "pisa.glue_us_per_pkt": US_PKT,
    "pisa.calls_per_chunk": "count",
    "pisa.ml_frac": "frac",
    "sharded.us_per_pkt": US_PKT,
    "sharded.overhead_ratio": "ratio",
    "sharded.partition_us_per_pkt": US_PKT,
    "sharded.merge_us_per_pkt": US_PKT,
    "sharded.shard_skew": "ratio",
    "pool.us_per_pkt": US_PKT,
    "pool.overhead_ratio": "ratio",
    "pool1.us_per_pkt": US_PKT,
    "pool.transport_us_per_chunk": "us",
    "pool.request_bytes_per_chunk": "bytes",
    "pool.response_bytes_per_chunk": "bytes",
    "pool.apply_delta_us_per_chunk": "us",
    "pool.spawn_s": "s",
    "pool.rewind_us": "us",
    "pool.crashes": "count",
    "pool.replayed_chunks": "count",
    "pool.degraded_chunks": "count",
    "service.us_per_pkt": US_PKT,
    "service.overhead_ratio": "ratio",
    "service.submit_us": "us",
    "service.decision_p50_ms": "ms",
    "service.decision_p90_ms": "ms",
    "service.decision_p99_ms": "ms",
    "service.samples": "count",
    "service.within_limit_frac": "frac",
    "service.backlog_end": "count",
    "service.gen_lag_p99_ms": "ms",
    "service.submitted": "count",
    "service.accepted": "count",
    "service.shed": "count",
    "service.deferred": "count",
    "service.expired": "count",
    "service.completed": "count",
    "service.failed_frac": "frac",
    "trace.overhead_frac": "frac",
}
#: Emitted by the traced run (report + result file) but null on single-app
#: workloads, so they stay out of BENCHMARK.json and the final JSON line.
TWO_APP_ONLY = {
    "fabric.us_per_pkt": US_PKT,
    "fabric.overhead_ratio": "ratio",
    "fabric.lane_skew": "ratio",
    "hw.reconfigurations": "count",
    "hw.reconfig_us_per_swap": "us",
}


def fingerprint(seed: int, workload: workloads.Workload, seconds: float, toy: bool) -> dict:
    """One host + configuration fingerprint carried by every result file."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "toy": toy,
        "loadavg_1m_start": os.getloadavg()[0],
        "shards": workloads.SHARDS,
        "pool": workloads.POOL,
        "queue_depth": workloads.QUEUE_DEPTH,
        "burst": workloads.BURST,
        "schedule_seed": workloads.SCHEDULE_SEED,
        "rounds": phases.ROUNDS,
        "workload": dataclasses.asdict(workload),
    }


def service_metrics(serve: dict, tally: phases.Tally) -> dict:
    names = ("decision_p50_ms", "decision_p90_ms", "decision_p99_ms", "samples",
             "within_limit_frac", "backlog_end", "gen_lag_p99_ms", "submitted", "accepted",
             "shed", "deferred", "expired", "completed")
    return {
        **{f"service.{name}": serve[name] for name in names},
        "service.failed_frac": tally.failed / tally.attempted,
    }


def serve_detail(serve: dict) -> dict:
    """The serve summary as stored; per-request spans go to the Chrome trace."""
    return {k: v for k, v in serve.items() if k != "requests"}


def run_untraced(inputs, seconds: float, toy: bool, digest, tally) -> tuple[dict, dict]:
    tally.add(
        sum(len(r) for r in inputs.prefix_records.values()),
        verify.scalar_prefix_mismatches(inputs),
    )
    measured = phases.end_to_end(inputs, seconds, toy, digest, tally)
    serve = measured.pop("serve")
    metrics = {
        **{name: measured.pop(name)
           for name in ("setup_s", "replay_pkt_per_s", "drain_pkt_per_s")},
        "peak_rss_mb": phases.peak_rss_mb(),
        "decision_p50_ms": serve["decision_p50_ms"],
        "decision_p90_ms": serve["decision_p90_ms"],
        "failed_frac": tally.failed / tally.attempted,
    }
    return metrics, {**measured, "serve": serve_detail(serve)}


def run_traced(inputs, seconds: float, toy: bool, out_dir: Path, digest,
               tally) -> tuple[dict, dict]:
    budget = {phase: share * seconds for phase, share in TRACED_SHARES.items()}
    tracer = layers.Tracer()
    metrics = layers.run_ladder(inputs, budget["ladder"], 1 if toy else 3, tracer, tally)
    with tracer.span("phase.serve"):
        serve = phases.serve_phase(
            inputs, budget["serve"], 1 if toy else TRACED_WINDOWS, digest, tally
        )
    metrics.update(service_metrics(serve, tally))
    for name in ("crashes", "replayed_chunks", "degraded_chunks"):
        metrics[f"pool.{name}"] += serve[name]
    trace_path = out_dir / f"{inputs.workload.name}.trace.json"
    layers.write_chrome_trace(trace_path, tracer, serve["requests"])
    detail = {
        "serve": serve_detail(serve),
        "ladder_rounds": metrics.pop("ladder.rounds"),
        "spans": len(tracer.spans),
        "chrome_trace": str(trace_path),
    }
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 toy: bool = False) -> dict:
    """One workload, one mode; returns the whole result payload."""
    started = time.time()
    workload = workloads.WORKLOADS[name]
    if toy:
        workload = workload.toy()
    out_dir.mkdir(parents=True, exist_ok=True)
    host = fingerprint(seed, workload, seconds, toy)
    inputs = workloads.build_inputs(workload, seed)
    digest, tally = verify.SimDigest(), phases.Tally()
    if trace:
        metrics, detail = run_traced(inputs, seconds, toy, out_dir, digest, tally)
        units = {**PER_LAYER, **TWO_APP_ONLY}
    else:
        metrics, detail = run_untraced(inputs, seconds, toy, digest, tally)
        units = {**END_TO_END, **UNBOUNDED}
    serve = detail["serve"]
    # A generator that ran late offered less load than the schedule says;
    # toy runs share a host with the test suite, so they only report it.
    valid = serve["lag_ok"] or toy
    payload = {
        "started": started,
        "fingerprint": host,
        "mode": "trace" if trace else "e2e",
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()
        },
        "sim_digest": digest.hexdigest(),
        "correct": tally.failed == 0,
        "valid": valid,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "detail": detail,
        "wall_s": time.time() - started,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    result_path = out_dir / f"{name}.{payload['mode']}.seed{seed}.{stamp}.{os.getpid()}.json"
    result_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    payload["result_path"] = str(result_path)
    return payload


def report(name: str, payload: dict) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    fp = payload["fingerprint"]
    serve = payload["detail"]["serve"]
    print(f"# ledger {name} mode={payload['mode']} seed={fp['seed']} nproc={fp['nproc']} "
          f"python={fp['python']} numpy={fp['numpy']} sha={fp['git_sha'][:12]} "
          f"load1m={fp['loadavg_1m_start']:.2f} wall={payload['wall_s']:.1f}s")
    print(f"# serve: offered={serve['offered']} at {fp['workload']['offered_req_per_s']} req/s "
          f"samples={serve['samples']} p99={serve['decision_p99_ms']:.3f}ms "
          f"gen_lag_p99={serve['gen_lag_p99_ms']:.3f}ms backlog_end={serve['backlog_end']}")
    for metric, entry in payload["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{metric:36s} {shown:>14s} {entry['unit']}")
    print(f"sim_digest {payload['sim_digest']}  (modeled time; not a metric)")
    print(f"result {payload['result_path']}")
    if not payload["correct"]:
        print(f"IDENTITY CHECK FAILED: {payload['failed']} of {payload['attempted']} operations")
    if not payload["valid"]:
        print("SERVE PHASE INVALID: median generator lag above 20% of decision_p50_ms")
    contract = PER_LAYER if payload["mode"] == "trace" else END_TO_END
    print(json.dumps({
        "correct": payload["correct"],
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {metric: payload["metrics"][metric] for metric in contract},
    }))


def finite(payload: dict) -> bool:
    return all(
        entry["value"] is None or math.isfinite(entry["value"])
        for entry in payload["metrics"].values()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run measures (split across phases)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test size; numbers are not ledger figures")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    status = 0
    for name in names:
        payload = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.out, args.toy
        )
        report(name, payload)
        if not (payload["correct"] and payload["valid"] and finite(payload)):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
