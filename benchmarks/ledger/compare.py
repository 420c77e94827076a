"""Compare two or more sets of ledger runs, metric by metric.

    python3 benchmarks/ledger/compare.py A_DIR B_DIR [C_DIR ...]

Each directory holds the result files one side's runs wrote (``run.py
--out DIR``; untraced ``e2e`` results only).  The first directory is the
base.  For every workload x end-to-end metric this prints both medians
with quartiles, the ratio *with its base*, the share of run pairs the other
side won (pairs are runs in time order; ties count for neither), and a
verdict against the bound fixed in ``BENCHMARK.json`` (for the unbounded
``decision_p50_ms`` / ``decision_p90_ms``: the issue's advisory 10 % / 15 %):

``improved``    won >= 9/10 of pairs and the medians differ by more than the
                base's own inter-quartile spread
``regressed``   median worse than the base by more than the bound
``unresolved``  either side's spread exceeds the bound, unless every run of
                one side beats every run of the other
``same``        none of the above

``compare.py A A2`` on two sets from one commit is the repeatability check:
it must print no ``regressed`` and no ``unresolved`` for a bounded metric.
Exit code 1 when any bounded row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"

#: The untraced run also prints the open-loop percentiles, which the 2-vCPU
#: host cannot repeat well enough for BENCHMARK.json to bound.  An A/B still
#: judges them, against the bounds the issue asked for.
ADVISORY = [
    {"name": "decision_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10, "advisory": True},
    {"name": "decision_p90_ms", "unit": "ms", "better": "lower", "bound": 0.15, "advisory": True},
]


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced results in ``directory`` by workload, in time order."""
    runs: dict[str, list[dict]] = {}
    payloads = [json.loads(path.read_text()) for path in directory.glob("*.e2e.*.json")]
    for payload in sorted(payloads, key=lambda payload: payload["started"]):
        name = payload["fingerprint"]["workload"]["name"]
        runs.setdefault(name, []).append(payload)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(base: list[float], other: list[float], better: str, bound: float) -> dict:
    """Medians, spreads, pairs won and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0   # sign * (other - base) > 0 is worse
    b_q1, b_med, b_q3 = quartiles(base)
    o_q1, o_med, o_q3 = quartiles(other)
    spread = max((b_q3 - b_q1) / abs(b_med), (o_q3 - o_q1) / abs(o_med))
    pairs = list(zip(base, other))
    won = sum(sign * (o - b) < 0 for b, o in pairs)
    lost = sum(sign * (o - b) > 0 for b, o in pairs)
    all_better = max(sign * o for o in other) < min(sign * b for b in base)
    all_worse = min(sign * o for o in other) > max(sign * b for b in base)
    worse_by = sign * (o_med - b_med) / abs(b_med)
    if spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif (
        worse_by < 0
        and won >= 0.9 * len(pairs)
        and abs(o_med - b_med) > (b_q3 - b_q1)
    ):
        verdict = "improved"
    else:
        verdict = "same"
    return {
        "base": (b_q1, b_med, b_q3), "other": (o_q1, o_med, o_q3),
        "ratio": o_med / b_med, "spread": spread, "won": won, "lost": lost,
        "pairs": len(pairs), "verdict": verdict,
    }


def compare(base_runs: dict, other_runs: dict, metrics: list[dict]) -> list[tuple]:
    rows = []
    for workload in base_runs:
        if workload not in other_runs:
            continue
        for metric in metrics:
            name = metric["name"]
            series = [
                [run["metrics"][name]["value"] for run in runs[workload]]
                for runs in (base_runs, other_runs)
            ]
            rows.append(
                (workload, metric, judge(*series, metric["better"], metric["bound"]))
            )
    return rows


def render(rows: list[tuple], base_label: str, other_label: str) -> None:
    print(f"== {other_label} against base {base_label}")
    for workload, metric, j in rows:
        b_q1, b_med, b_q3 = j["base"]
        o_q1, o_med, o_q3 = j["other"]
        print(
            f"{workload:14s} {metric['name']:17s} "
            f"base {b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]  "
            f"other {o_med:.5g} [{o_q1:.5g}, {o_q3:.5g}]  "
            f"other/base={j['ratio']:.3f} (base {b_med:.5g} {metric['unit']}, "
            f"{metric['better']} is better)  "
            f"pairs won {j['won']}/{j['pairs']} lost {j['lost']}  "
            f"spread {j['spread']:.1%} bound {metric['bound']:.0%}  "
            f"{j['verdict']}{' (advisory)' if metric.get('advisory') else ''}"
        )


def failures(runs: dict[str, list[dict]]) -> int:
    return sum(run["failed"] for series in runs.values() for run in series)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="result directories, base first")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    if len(args.sets) < 2:
        parser.error("need a base set and at least one other set")
    metrics = json.loads(args.benchmark.read_text())["end_to_end"] + ADVISORY
    loaded = [load_runs(path) for path in args.sets]
    if not loaded[0]:
        parser.error(f"no e2e result files in {args.sets[0]}")
    status = 0
    for path, runs in zip(args.sets[1:], loaded[1:]):
        rows = compare(loaded[0], runs, metrics)
        render(rows, str(args.sets[0]), str(path))
        print(
            f"failed operations: base {failures(loaded[0])}, other {failures(runs)} "
            "(a gain does not count when more operations fail than at the base)"
        )
        if any(
            j["verdict"] in ("regressed", "unresolved") and not metric.get("advisory")
            for __, metric, j in rows
        ):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
