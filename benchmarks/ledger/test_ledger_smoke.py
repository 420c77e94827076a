"""Tier-1 smoke test of the cost ledger at toy size.

Not a measurement: every workload runs with <= 2k packets, one pass and a
sub-second serve phase, writing into ``tmp_path``.  It keeps the contract
honest — every workload and metric named in ``BENCHMARK.json`` is emitted
with a finite value and the declared unit, identity checks pass,
``sim_digest`` repeats, nothing is written outside ``tmp_path`` — and
proves the correctness check can fail.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="ledger stack needs fork")

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
SECONDS = 0.2


def toy_run(name: str, trace: bool, out: Path) -> dict:
    return run.run_workload(name, seed=0, seconds=SECONDS, trace=trace, out_dir=out, toy=True)


def listing(root: Path) -> set[str]:
    return {
        str(p.relative_to(root)) for p in root.rglob("*") if "__pycache__" not in p.parts
    }


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("ledger")


@pytest.fixture(scope="module")
def e2e(out) -> dict[str, dict]:
    """One untraced toy run per workload, shared by the tests below."""
    before = listing(HERE)
    runs = {name: toy_run(name, False, out) for name in workloads.WORKLOADS}
    assert listing(HERE) == before, "the ledger wrote outside --out"
    return runs


def check_payload(payload: dict, declared: list[dict], out: Path) -> None:
    assert payload["correct"] and payload["failed"] == 0 and payload["attempted"] > 0
    assert payload["fingerprint"]["workload"]["dnn_packets"] <= 2000
    for metric in declared:
        entry = payload["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]
    stored = json.loads(Path(payload["result_path"]).read_text())
    assert stored["sim_digest"] == payload["sim_digest"]
    assert Path(payload["result_path"]).parent == out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted_at_toy_size(name, e2e, out):
    check_payload(e2e[name], BENCHMARK["end_to_end"], out)
    before = listing(HERE)
    traced = toy_run(name, True, out)
    assert listing(HERE) == before, "the ledger wrote outside --out"
    check_payload(traced, BENCHMARK["per_layer"], out)
    fabric = traced["metrics"]["fabric.us_per_pkt"]["value"]
    assert (fabric is not None) == workloads.WORKLOADS[name].multi_app
    assert (out / f"{name}.trace.json").exists()


def test_sim_digest_repeats(e2e, out):
    """Two clients, two apps, threads and forks: modeled time still repeats."""
    again = toy_run("multiapp_c512", False, out)
    assert again["sim_digest"] == e2e["multiapp_c512"]["sim_digest"]
    assert again["result_path"] != e2e["multiapp_c512"]["result_path"]


def test_overload_is_counted_as_failure():
    """5x capacity into 2-deep queues: sheds, and every submit is accounted."""
    inputs = workloads.build_inputs(workloads.WORKLOADS["dnn_c64"].toy(), seed=0)
    tally = phases.Tally()
    serve = phases.serve_phase(
        inputs, 0.4, 1, verify.SimDigest(), tally, queue_depth=2, offered_req_per_s=1000.0
    )
    assert serve["shed"] > 0 and serve["serve_failed"] >= serve["shed"]
    assert serve["submitted"] == serve["accepted"] + serve["shed"] + serve["deferred"]
    assert serve["submitted"] == serve["offered"]
    assert tally.failed / tally.attempted > 0
    assert serve["within_limit_frac"] < 1.0


def test_verifier_reports_a_corrupted_decision():
    inputs = workloads.build_inputs(workloads.WORKLOADS["bypass_c512"].toy(), seed=0)
    traces = inputs.pass_traces()
    backend = workloads.Backend(inputs, shards=1)
    results = backend.run(traces)
    assert verify.pass_mismatches(verify.Oracle(inputs), results, backend.state(), traces) == 0
    bad = results[workloads.ANOMALY]
    bad.decisions = bad.decisions.copy()
    bad.decisions[7] ^= 1
    assert verify.pass_mismatches(verify.Oracle(inputs), results, backend.state(), traces) == 1


def test_command_exits_nonzero_on_mismatch(tmp_path, monkeypatch, capsys):
    """One flipped decision anywhere in the stack fails the whole command."""
    honest = workloads.Backend.run

    def corrupt(self, traces):
        results = honest(self, traces)
        for result in results.values():
            if len(result.decisions):
                result.decisions = result.decisions.copy()
                result.decisions[0] ^= 1
        return results

    monkeypatch.setattr(workloads.Backend, "run", corrupt)
    args = ["--workload", "dnn_c8192", "--seconds", str(SECONDS), "--toy", "--out", str(tmp_path)]
    assert run.main(args) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
