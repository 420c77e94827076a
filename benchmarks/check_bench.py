#!/usr/bin/env python
"""Guard the committed perf trajectory: BENCH_*.json must not regress.

Each PR commits ``BENCH_<name>.json`` records (regenerated by a
``--runbench`` session, smoke and heavy variants alike; a tier-1 smoke
session records under pytest's tmp dir instead).  CI runs this
script after the test suite; it fails when a committed record is missing
or a recorded speedup has slipped below its floor, so a PR can't silently
trade away throughput the previous PRs bought.

Usage::

    python benchmarks/check_bench.py [--bench-dir DIR]

Exit status 0 on success, 1 with a per-check report otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (file, dotted key path, floor).  Floors sit under the values the
#: benchmarks assert at generation time, leaving headroom for host noise
#: while still catching order-of-magnitude regressions.
FLOORS: tuple[tuple[str, str, float], ...] = (
    # PR 1: batched graph interpreter vs the scalar interpreter.
    ("BENCH_graph_batch.json", "smoke.speedup", 10.0),
    ("BENCH_graph_batch.json", "full_trace.speedup", 50.0),
    # PR 2: the fully vectorized PISA pipeline vs the scalar loop.
    ("BENCH_pipeline_batch.json", "smoke.speedup", 10.0),
    ("BENCH_pipeline_batch.json", "full_trace.speedup", 50.0),
    # PR 3: sharded runtime — modeled parallel-fabric drain must keep
    # scaling (wall-clock depends on the recording host's CPU count and
    # is informational, so it carries no floor here).
    ("BENCH_shard_runtime.json", "smoke.best_model_speedup", 1.2),
    ("BENCH_shard_runtime.json", "full_trace.best_model_speedup", 1.8),
    # PR 4: multi-app fabric — interleaving two apps over the fabric must
    # stay at least as fast (aggregate modeled drain) as running each app
    # serially on one grid; the best configuration (affine lanes) should
    # beat it comfortably.
    ("BENCH_multi_app.json", "smoke.best_aggregate_speedup", 1.2),
    ("BENCH_multi_app.json", "full_trace.best_aggregate_speedup", 1.3),
    # PR 5: persistent shard pools — repeated small-trace runs through a
    # warm pool must keep beating fork-per-run wall-clock (per-run setup
    # amortization; identity is asserted by the benchmarks themselves).
    ("BENCH_pool_runtime.json", "smoke.repeat_speedup", 1.2),
    ("BENCH_pool_runtime.json", "full_trace.repeat_speedup", 1.2),
    # PR 7: crash-transparent pool runs — the watchdog heartbeats must
    # stay near-free at steady state (the pool_runtime floors above are
    # recorded with heartbeats on, holding the absolute trajectory), and
    # crash-injected runs must keep recovering bit-identically.
    ("BENCH_fault_recovery.json", "smoke.hb_relative_throughput", 0.5),
    ("BENCH_fault_recovery.json", "smoke.recovered_identical", 1.0),
    # PR 8: always-on serving — all three operating points must be on
    # record, overload must actually shed (bounded queues doing their
    # job, not growing), and below-capacity load must stay admitted.
    # Absolute rates are host-dependent and carry no floor.
    ("BENCH_serving.json", "smoke.points_recorded", 3.0),
    ("BENCH_serving.json", "smoke.overload.shed", 1.0),
    ("BENCH_serving.json", "smoke.below_capacity.accept_ratio", 0.6),
)


def _dig(payload: dict, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check(bench_dir: Path) -> list[str]:
    """All floor violations (empty list == healthy trajectory)."""
    problems: list[str] = []
    for filename, key, floor in FLOORS:
        path = bench_dir / filename
        if not path.exists():
            problems.append(f"{filename}: missing (expected committed record)")
            continue
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            problems.append(f"{filename}: unreadable JSON ({exc})")
            continue
        value = _dig(payload, key)
        if value is None:
            problems.append(f"{filename}: missing key {key!r}")
        elif not isinstance(value, (int, float)) or value < floor:
            problems.append(
                f"{filename}: {key} = {value!r} regressed below floor {floor}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="directory holding BENCH_*.json (default: repo root)",
    )
    args = parser.parse_args(argv)
    problems = check(args.bench_dir)
    if problems:
        print("bench trajectory check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"bench trajectory ok ({len(FLOORS)} floors held)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
