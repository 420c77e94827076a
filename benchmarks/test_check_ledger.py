"""``check_ledger.py`` can fail: doctored trace-mode result files in ``tmp_path``.

A healthy file is what ``run.py --trace 1`` writes, cut to the fields the
checker reads, every ratio at the median and the call count at the count its
ceiling was set from.
"""

import json

import pytest

import check_ledger


def _write(directory, workload, metrics=(), **fields):
    values = {f"{layer}.overhead_ratio": v for layer, v in check_ledger.MEDIANS[workload].items()}
    values["pisa.calls_per_chunk"] = check_ledger.CALLS[workload]
    values.update(dict.fromkeys(check_ledger.ZERO, 0), **dict(metrics))
    payload = {"correct": True, "valid": True, **fields,
               "metrics": {name: {"value": v} for name, v in values.items()}}
    path = directory / f"{workload}.trace.seed0.20261004T030240.21520.json"
    path.write_text(json.dumps(payload))
    (directory / f"{workload}.trace.json").write_text('{"traceEvents": []}')  # not a result


@pytest.mark.parametrize("doctored, status", [
    ({}, 0),
    ({"metrics": {"pisa.overhead_ratio": 1.6 * check_ledger.MEDIANS["dnn_c64"]["pisa"]}}, 1),
    ({"metrics": {"pisa.calls_per_chunk": 1.2 * check_ledger.CALLS["dnn_c64"]}}, 1),
    ({"metrics": {"pool.replayed_chunks": 1}}, 1),
    ({"correct": False}, 1),
    (None, 1),  # no result file for the workload
], ids=["healthy", "ratio-over-ceiling", "calls-over-ceiling", "replayed-chunk", "incorrect",
        "missing-workload"])
def test_exit_status(tmp_path, capsys, doctored, status):
    for workload in check_ledger.MEDIANS:
        if workload != "dnn_c64":
            _write(tmp_path, workload)
        elif doctored is not None:
            _write(tmp_path, workload, **doctored)
    assert check_ledger.main([str(tmp_path)]) == status
    out = capsys.readouterr().out
    assert ("FAILED  dnn_c64" in out) == bool(status) and out.count("FAILED") == status
