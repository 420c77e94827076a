"""Shared benchmark fixtures: trained models and workloads (session-scoped).

Each benchmark regenerates one of the paper's tables or figures, printing
the rows and writing them through ``repro.core.write_result``.  The
committed ``results/*.txt`` are the golden those tables are held to: a
session writes under pytest's tmp dir and, when it ends, every table it
wrote must equal its committed twin byte for byte — so tier-1 leaves the
tree clean.  A caller that sets ``TAURUS_RESULTS_DIR`` itself is
regenerating the committed tables, and is not compared::

    TAURUS_RESULTS_DIR=results PYTHONPATH=src python -m pytest benchmarks -q --ignore=benchmarks/ledger
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import dnn_feature_matrix, generate_connections
from repro.fixpoint import quantize_model
from repro.ml import anomaly_detection_dnn
from repro.testbed import EndToEndExperiment

#: The committed tables (next to ROADMAP.md).
GOLDEN = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _results_golden(tmp_path_factory):
    """Send this session's tables to a tmp dir, then hold them to ``results/``."""
    if "TAURUS_RESULTS_DIR" in os.environ:  # the caller is regenerating results/
        yield
        return
    written = tmp_path_factory.mktemp("results")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TAURUS_RESULTS_DIR", str(written))
        yield
    stale = sorted(
        table.name
        for table in written.iterdir()
        if not (twin := GOLDEN / table.name).is_file() or twin.read_bytes() != table.read_bytes()
    )
    assert not stale, (
        f"tables differ from results/ or have no committed twin: {stale} "
        f"(this session's are under {written})"
    )


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
