#!/usr/bin/env python3
"""Hold the cost ledger's host-independent numbers.

    python3 benchmarks/check_ledger.py DIR

``DIR`` holds the trace-mode result files that ``python3
benchmarks/ledger/run.py --workload W --seed 0 --trace 1 --out DIR`` writes
(``<workload>.trace.seed<N>.<stamp>.<pid>.json`` — not the Chrome trace
``<workload>.trace.json`` beside them), one or more per workload.  Per
workload it fails on a run that is not ``correct`` and ``valid``, on a
crash / replay / degrade / failed counter that is not 0, on a median
``<layer>.overhead_ratio`` above its ceiling, and on a median
``pisa.calls_per_chunk`` above its ceiling.  An overhead ratio is one layer
over the layer below at equal chunk size, on one host in one run; a call
count is exact — the two kinds of floor that travel between hosts.  Prints
one row per workload x metric; exit status 0 when everything holds, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: workload -> layer -> median ``<layer>.overhead_ratio`` of the five traced
#: runs (seed 0, 2 vCPUs) taken when the ceilings were last set (CHANGES.md,
#: PR 22, lists every run).  ``service`` on ``dnn_c64`` and ``bypass_c512``
#: is the median of ten traced runs taken when fork lanes began folding
#: queued requests into full-chunk pieces (CHANGES.md lists every run).
MEDIANS = {
    "dnn_c8192": {"pisa": 3.32, "sharded": 1.27, "pool": 1.17, "service": 0.94},
    "dnn_c64": {"pisa": 6.04, "sharded": 1.16, "pool": 1.58, "service": 1.59},
    "bypass_c512": {"pisa": 14.03, "sharded": 1.10, "pool": 1.09, "service": 1.26},
    "multiapp_c512": {"pisa": 2.48, "sharded": 1.05, "pool": 1.95, "service": 1.01},
}
#: A ceiling is this much above its median: clear of the run-to-run spread
#: (largest max / min over those five runs: 1.18), tripped by a layer that
#: got half again as dear relative to the layer below.
HEADROOM = 1.5
#: workload -> ``pisa.calls_per_chunk``: the Python calls one chunk makes
#: through the in-process pipeline, counted when the flow registers and
#: the block joined parse, MATs, bypass and decisions in running once per
#: span of ``max(chunk, 8192)`` rows (CHANGES.md).  A count, not a time:
#: every run on every host reads the same number for the same code and
#: numpy.
CALLS = {"dnn_c8192": 78.75, "dnn_c64": 13.5, "bypass_c512": 29.125, "multiapp_c512": 34.222}
#: A call ceiling is this much above its count: tripped by a stage that
#: gains a handful of per-chunk calls.
CALLS_HEADROOM = 1.1
#: Exactly 0 on every run of a healthy program.
ZERO = ("pool.crashes", "pool.replayed_chunks", "pool.degraded_chunks", "service.failed_frac")


def check(directory: Path) -> list[str]:
    """Print the ratio rows for ``directory``; return what does not hold."""
    problems = []
    for workload, medians in MEDIANS.items():
        runs = {
            path.name: json.loads(path.read_text())
            for path in sorted(directory.glob(f"{workload}.trace.seed*.json"))
        }
        if not runs:
            problems.append(f"{workload}: no trace-mode result file in {directory}")
            continue
        for file, run in runs.items():
            bad = [f"{flag} is false" for flag in ("correct", "valid") if not run[flag]]
            counts = {name: run["metrics"][name]["value"] for name in ZERO}
            bad += [f"{name} = {n}, must be 0" for name, n in counts.items() if n != 0]
            problems += [f"{file}: {what}" for what in bad]
        ceilings = {f"{layer}.overhead_ratio": HEADROOM * m for layer, m in medians.items()}
        ceilings["pisa.calls_per_chunk"] = CALLS_HEADROOM * CALLS[workload]
        for name, ceiling in ceilings.items():
            median = statistics.median(run["metrics"][name]["value"] for run in runs.values())
            print(f"{workload:14s} {name:24s} median {median:6.2f} of {len(runs)}   "
                  f"ceiling {ceiling:6.2f}   {'OVER' if median > ceiling else 'ok'}")
            if median > ceiling:
                problems.append(f"{workload}: median {name} {median:.2f} > ceiling {ceiling:.2f}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="where run.py --trace 1 --out DIR wrote")
    problems = check(parser.parse_args(argv).directory)
    for problem in problems:
        print(f"FAILED  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
