"""Shared fixtures: small trained models reused across the test suite.

Training is deterministic (seeded) and sized to keep the suite fast;
session scope means each model trains once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    dnn_feature_matrix,
    generate_connections,
    iot_cluster_dataset,
    svm_feature_matrix,
)
from repro.fixpoint import quantize_model
from repro.ml import KMeans, RBFKernelSVM, anomaly_detection_dnn
from repro.pisa import fnv1a_columns


@pytest.fixture(scope="session")
def connections():
    """A moderately sized NSL-KDD-like dataset."""
    return generate_connections(4000, seed=11)


@pytest.fixture(scope="session")
def train_test_split(connections):
    rng = np.random.default_rng(5)
    return connections.split(0.7, rng)


@pytest.fixture(scope="session")
def trained_dnn(train_test_split):
    train, __ = train_test_split
    model = anomaly_detection_dnn(seed=3)
    model.fit(dnn_feature_matrix(train), train.labels, epochs=15, batch_size=64)
    return model


@pytest.fixture(scope="session")
def quantized_dnn(trained_dnn, train_test_split):
    train, __ = train_test_split
    return quantize_model(trained_dnn, dnn_feature_matrix(train)[:256])


@pytest.fixture(scope="session")
def trained_svm(train_test_split):
    train, __ = train_test_split
    model = RBFKernelSVM(budget=16, epochs=2, seed=3)
    model.fit(svm_feature_matrix(train)[:600], train.labels[:600])
    return model


@pytest.fixture(scope="session")
def trained_kmeans():
    features, __ = iot_cluster_dataset(1200, seed=7)
    return KMeans(n_clusters=5, seed=7).fit(features)


@pytest.fixture(scope="session")
def colliding_tuples():
    """Pairs of distinct five-tuples (rows ``2k``, ``2k + 1``), each sharing
    a flow-register slot at the default 65,536 slots — a seeded search over
    2,000 random tuples, up to two pairs per slot residue mod 6, so every
    lane of a 1-, 2- or 3-lane runtime meets collision neighbours."""
    rng = np.random.default_rng(0)
    high = np.array([2**32, 2**32, 65536, 65536, 8])
    tuples = rng.integers([0, 0, 1024, 1, 0], high, size=(2000, 5))
    slots = fnv1a_columns(list(tuples.T)) % np.uint64(65536)
    order = np.argsort(slots, kind="stable")
    found = np.flatnonzero(slots[order][1:] == slots[order][:-1])
    residue = slots[order][found] % np.uint64(6)
    first = np.concatenate([found[residue == r][:2] for r in range(6)])
    pairs = tuples[np.stack([order[first], order[first + 1]], axis=1).ravel()]
    assert set(residue.tolist()) == set(range(6))
    assert (pairs[0::2] != pairs[1::2]).any(axis=1).all()
    return pairs
