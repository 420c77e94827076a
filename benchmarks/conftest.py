"""Shared benchmark fixtures: trained models and workloads (session-scoped).

Each benchmark regenerates one of the paper's tables or figures, printing
the rows and writing them under ``results/``.  Perf-trajectory numbers
(packets/sec and friends) go through :func:`bench_json`, which persists
them as ``BENCH_<name>.json``.  Only an opt-in ``--runbench`` session
writes the committed records (repo root, ``results/``); a smoke session
writes both under pytest's tmp dir, so tier-1 leaves the tree clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import dnn_feature_matrix, generate_connections
from repro.fixpoint import quantize_model
from repro.ml import anomaly_detection_dnn
from repro.testbed import EndToEndExperiment

#: Where the committed BENCH_*.json records live (next to ROADMAP.md).
REPO_ROOT = Path(__file__).resolve().parent.parent


def pytest_configure(config):
    # Benchmarks print their tables; -s is not required because we also
    # persist everything under results/.
    pass


@pytest.fixture(scope="session")
def record_dir(pytestconfig, tmp_path_factory) -> Path:
    """The repo root under ``--runbench``, else a session tmp dir."""
    if pytestconfig.getoption("--runbench"):
        return REPO_ROOT
    return tmp_path_factory.mktemp("bench_records")


@pytest.fixture(scope="session", autouse=True)
def _smoke_results_dir(record_dir):
    """Smoke sessions write their ``results/`` tables beside their records
    (``repro.core.write_result`` reads ``TAURUS_RESULTS_DIR``)."""
    with pytest.MonkeyPatch.context() as patch:
        if record_dir != REPO_ROOT:
            patch.setenv("TAURUS_RESULTS_DIR", str(record_dir / "results"))
        yield


@pytest.fixture(scope="session")
def bench_json(record_dir):
    """Record perf numbers for the trajectory: ``record(name, payload)``.

    Each named payload is merged (later records win key-by-key) and written
    to ``BENCH_<name>.json`` in :func:`record_dir` when the session ends.
    """
    records: dict[str, dict] = {}

    def record(name: str, payload: dict) -> None:
        records.setdefault(name, {}).update(payload)

    yield record
    for name, payload in records.items():
        path = record_dir / f"BENCH_{name}.json"
        merged: dict = {}
        if path.exists():
            try:
                merged = json.loads(path.read_text())
            except (ValueError, OSError):
                merged = {}
        merged.update(payload)
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def connections():
    return generate_connections(6000, seed=11)


@pytest.fixture(scope="session")
def split(connections):
    return connections.split(0.7, np.random.default_rng(5))


@pytest.fixture(scope="session")
def anomaly_dnn(split):
    train, __ = split
    model = anomaly_detection_dnn(seed=3)
    model.fit(dnn_feature_matrix(train), train.labels, epochs=25, batch_size=64)
    return model


@pytest.fixture(scope="session")
def anomaly_q(anomaly_dnn, split):
    train, __ = split
    return quantize_model(anomaly_dnn, dnn_feature_matrix(train)[:512])


@pytest.fixture(scope="session")
def experiment():
    return EndToEndExperiment.build(
        n_connections=4000, max_packets=120_000, epochs=20, seed=0
    )
