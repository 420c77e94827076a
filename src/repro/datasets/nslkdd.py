"""Synthetic NSL-KDD-like connection records.

The paper "generate[s] labeled packet-level traces from the NSL-KDD dataset
by expanding connection-level records to binned packet traces" (5.2.2).  The
real dataset is not redistributable here, so we synthesize connection
records from parameterized per-class feature distributions that preserve the
properties the experiments depend on:

* the NSL-KDD attack taxonomy (DoS, Probe, R2L, U2R vs benign),
* heterogeneous separability — DoS floods are easy to spot, R2L/U2R are
  famously near-indistinguishable from benign traffic, which is what keeps
  the paper's offline F1 at ~0.71 rather than ~1.0,
* heavy-tailed byte/duration distributions (log-transformable, Section 3.1),
* the 6-feature subset used by the Tang et al. DNN and the 8-feature subset
  used by the SVM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATTACK_CLASSES",
    "ConnectionDataset",
    "generate_connections",
    "dnn_feature_matrix",
    "svm_feature_matrix",
    "FEATURE_NAMES",
    "DNN_FEATURES",
    "SVM_FEATURES",
]

#: Class labels. Index 0 is benign; the rest are NSL-KDD attack categories.
ATTACK_CLASSES = ("benign", "dos", "probe", "r2l", "u2r")

#: Full synthetic feature schema (a tractable NSL-KDD subset).
FEATURE_NAMES = (
    "duration",        # seconds
    "protocol",        # 0 tcp / 1 udp / 2 icmp
    "service",         # categorical service id (0..9)
    "src_bytes",
    "dst_bytes",
    "count",           # connections to same host in window
    "srv_count",       # connections to same service in window
    "urgent",          # urgent-flag packets
    "serror_rate",     # SYN-error rate
    "same_srv_rate",
    "wrong_fragment",
    "dst_host_count",
)

#: Tang et al. use six KDD features for the anomaly DNN.
DNN_FEATURES = (
    "duration",
    "src_bytes",
    "dst_bytes",
    "count",
    "srv_count",
    "serror_rate",
)

#: Mehmood & Rais select eight features via ACO for the SVM.
SVM_FEATURES = (
    "duration",
    "src_bytes",
    "dst_bytes",
    "count",
    "srv_count",
    "serror_rate",
    "same_srv_rate",
    "urgent",
)


@dataclass
class ConnectionDataset:
    """Connection-level records with labels.

    ``features`` is (n, len(FEATURE_NAMES)) raw (untransformed) values,
    ``labels`` is binary (1 = anomalous), and ``attack_types`` holds the
    class index into :data:`ATTACK_CLASSES`.
    """

    features: np.ndarray
    labels: np.ndarray
    attack_types: np.ndarray

    def __len__(self) -> int:
        return len(self.features)

    def column(self, name: str) -> np.ndarray:
        """Raw values of one named feature."""
        return self.features[:, FEATURE_NAMES.index(name)]

    def split(self, train_fraction: float, rng: np.random.Generator):
        """Shuffled (train, test) split."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        order = rng.permutation(len(self))
        cut = int(len(self) * train_fraction)
        train_idx, test_idx = order[:cut], order[cut:]
        return (
            ConnectionDataset(
                self.features[train_idx], self.labels[train_idx], self.attack_types[train_idx]
            ),
            ConnectionDataset(
                self.features[test_idx], self.labels[test_idx], self.attack_types[test_idx]
            ),
        )


# Per-class generative parameters.  Columns are lognormal medians (for the
# heavy-tailed features) or Beta/deterministic parameters (rates, flags).
# Separability knob: DoS sits far from benign on count/serror_rate,
# Probe is moderate, R2L/U2R nearly overlap benign.
_CLASS_MIX = {"dos": 0.38, "probe": 0.20, "r2l": 0.29, "u2r": 0.13}


def _lognormal(rng, median: float, sigma: float, n: int) -> np.ndarray:
    return rng.lognormal(mean=np.log(median + 1e-9), sigma=sigma, size=n)


def _sample_class(rng: np.random.Generator, cls: str, n: int) -> np.ndarray:
    """Sample ``n`` raw feature rows for one traffic class."""
    feats = np.zeros((n, len(FEATURE_NAMES)))

    def put(name: str, values: np.ndarray) -> None:
        feats[:, FEATURE_NAMES.index(name)] = values

    if cls == "benign":
        put("duration", _lognormal(rng, 8.0, 1.6, n))
        put("protocol", rng.choice([0, 1, 2], size=n, p=[0.75, 0.22, 0.03]))
        put("service", rng.integers(0, 10, size=n))
        put("src_bytes", _lognormal(rng, 900.0, 1.7, n))
        put("dst_bytes", _lognormal(rng, 2400.0, 1.9, n))
        put("count", _lognormal(rng, 6.0, 0.9, n))
        put("srv_count", _lognormal(rng, 5.0, 0.9, n))
        put("urgent", (rng.random(n) < 0.01).astype(float))
        put("serror_rate", rng.beta(1.2, 28.0, size=n))
        put("same_srv_rate", rng.beta(9.0, 3.0, size=n))
        put("wrong_fragment", np.zeros(n))
        put("dst_host_count", _lognormal(rng, 24.0, 0.8, n))
    elif cls == "dos":
        # Floods: huge connection counts, high SYN-error rates, tiny payloads.
        put("duration", _lognormal(rng, 0.6, 1.2, n))
        put("protocol", rng.choice([0, 1, 2], size=n, p=[0.7, 0.1, 0.2]))
        put("service", rng.integers(0, 10, size=n))
        put("src_bytes", _lognormal(rng, 90.0, 1.0, n))
        put("dst_bytes", _lognormal(rng, 25.0, 1.3, n))
        put("count", _lognormal(rng, 160.0, 0.7, n))
        put("srv_count", _lognormal(rng, 130.0, 0.7, n))
        put("urgent", (rng.random(n) < 0.02).astype(float))
        put("serror_rate", rng.beta(14.0, 2.0, size=n))
        put("same_srv_rate", rng.beta(2.0, 6.0, size=n))
        put("wrong_fragment", (rng.random(n) < 0.25).astype(float))
        put("dst_host_count", _lognormal(rng, 150.0, 0.6, n))
    elif cls == "probe":
        # Scans: many short connections across services, moderate error rate.
        put("duration", _lognormal(rng, 1.6, 1.4, n))
        put("protocol", rng.choice([0, 1, 2], size=n, p=[0.55, 0.2, 0.25]))
        put("service", rng.integers(0, 10, size=n))
        put("src_bytes", _lognormal(rng, 200.0, 1.5, n))
        put("dst_bytes", _lognormal(rng, 260.0, 1.8, n))
        put("count", _lognormal(rng, 16.0, 1.1, n))
        put("srv_count", _lognormal(rng, 7.0, 1.1, n))
        put("urgent", (rng.random(n) < 0.015).astype(float))
        put("serror_rate", rng.beta(2.2, 11.0, size=n))
        put("same_srv_rate", rng.beta(2.5, 5.0, size=n))
        put("wrong_fragment", (rng.random(n) < 0.05).astype(float))
        put("dst_host_count", _lognormal(rng, 80.0, 0.9, n))
    elif cls == "r2l":
        # Remote-to-local: looks like benign interactive traffic.
        put("duration", _lognormal(rng, 10.0, 1.6, n))
        put("protocol", rng.choice([0, 1, 2], size=n, p=[0.85, 0.13, 0.02]))
        put("service", rng.integers(0, 10, size=n))
        put("src_bytes", _lognormal(rng, 1100.0, 1.7, n))
        put("dst_bytes", _lognormal(rng, 2100.0, 1.9, n))
        put("count", _lognormal(rng, 7.0, 0.9, n))
        put("srv_count", _lognormal(rng, 5.5, 0.9, n))
        put("urgent", (rng.random(n) < 0.06).astype(float))
        put("serror_rate", rng.beta(1.5, 24.0, size=n))
        put("same_srv_rate", rng.beta(8.0, 3.2, size=n))
        put("wrong_fragment", np.zeros(n))
        put("dst_host_count", _lognormal(rng, 26.0, 0.8, n))
    elif cls == "u2r":
        # User-to-root: tiny class, nearly identical to benign shells.
        put("duration", _lognormal(rng, 9.0, 1.5, n))
        put("protocol", np.zeros(n))
        put("service", rng.integers(0, 10, size=n))
        put("src_bytes", _lognormal(rng, 1000.0, 1.6, n))
        put("dst_bytes", _lognormal(rng, 2300.0, 1.8, n))
        put("count", _lognormal(rng, 6.5, 0.9, n))
        put("srv_count", _lognormal(rng, 5.0, 0.9, n))
        put("urgent", (rng.random(n) < 0.10).astype(float))
        put("serror_rate", rng.beta(1.4, 26.0, size=n))
        put("same_srv_rate", rng.beta(8.5, 3.0, size=n))
        put("wrong_fragment", np.zeros(n))
        put("dst_host_count", _lognormal(rng, 23.0, 0.8, n))
    else:  # pragma: no cover - guarded by caller
        raise ValueError(f"unknown class {cls!r}")
    return feats


def generate_connections(n: int, seed: int = 0) -> ConnectionDataset:
    """Generate ``n`` connection records.

    45 % are attacks, matching NSL-KDD's roughly balanced train split
    (~46% attacks); the attack mix follows :data:`_CLASS_MIX`.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    n_attack = int(round(n * 0.45))
    n_benign = n - n_attack
    blocks = [_sample_class(rng, "benign", n_benign)]
    attack_types = [np.zeros(n_benign, dtype=np.int64)]
    remaining = n_attack
    for idx, (cls, frac) in enumerate(_CLASS_MIX.items(), start=1):
        count = int(round(n_attack * frac)) if idx < len(_CLASS_MIX) else remaining
        count = min(count, remaining)
        remaining -= count
        if count:
            blocks.append(_sample_class(rng, cls, count))
            attack_types.append(np.full(count, idx, dtype=np.int64))
    features = np.vstack(blocks)
    types = np.concatenate(attack_types)
    labels = (types > 0).astype(np.int64)
    order = rng.permutation(len(features))
    return ConnectionDataset(features[order], labels[order], types[order])


def _standardize(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    return (x - mean) / std


def _extract(dataset: ConnectionDataset, names: tuple[str, ...]) -> np.ndarray:
    cols = [dataset.column(name) for name in names]
    x = np.stack(cols, axis=1)
    # Section 3.1 feature engineering: log-compress heavy-tailed features so
    # a small fixed-point model can learn from them.
    heavy = {"duration", "src_bytes", "dst_bytes", "count", "srv_count", "dst_host_count"}
    for j, name in enumerate(names):
        if name in heavy:
            x[:, j] = np.log1p(x[:, j])
    return _standardize(x)


def dnn_feature_matrix(dataset: ConnectionDataset) -> np.ndarray:
    """The 6-feature DNN input matrix (log-compressed, standardized)."""
    return _extract(dataset, DNN_FEATURES)


def svm_feature_matrix(dataset: ConnectionDataset) -> np.ndarray:
    """The 8-feature SVM input matrix (log-compressed, standardized)."""
    return _extract(dataset, SVM_FEATURES)
