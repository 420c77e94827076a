"""Optimizers, losses, and the minibatch training loop.

The control plane trains models offline and pushes weight updates to the
data plane (Fig. 1); the online-training study (Figs. 13-14) sweeps batch
size and epoch count.  This module provides the from-scratch training
machinery both paths share.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SGD",
    "Adam",
    "softmax_cross_entropy",
    "binary_cross_entropy",
    "iterate_minibatches",
]


class SGD:
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, lr: float = 0.05, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, param: np.ndarray, grad: np.ndarray, key: int) -> None:
        """Update ``param`` in place using ``grad``; ``key`` identifies it."""
        if self.momentum:
            vel = self._velocity.get(key)
            if vel is None:
                vel = np.zeros_like(param)
            vel = self.momentum * vel - self.lr * grad
            self._velocity[key] = vel
            param += vel
        else:
            param -= self.lr * grad


class Adam:
    """Adam optimizer (Kingma & Ba) — used for the LSTM, which SGD trains
    poorly at small batch sizes."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 0.01):
        self.lr = lr
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def begin_step(self) -> None:
        """Advance the shared timestep (call once per batch)."""
        self._t += 1

    def step(self, param: np.ndarray, grad: np.ndarray, key: int) -> None:
        if self._t == 0:
            self._t = 1
        m = self._m.get(key, np.zeros_like(param))
        v = self._v.get(key, np.zeros_like(param))
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._m[key], self._v[key] = m, v
        m_hat = m / (1 - self.beta1**self._t)
        v_hat = v / (1 - self.beta2**self._t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over integer labels; returns (loss, dL/dlogits)."""
    logits = np.atleast_2d(logits)
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    nll = -np.log(np.clip(probs[np.arange(n), labels], 1e-12, None))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return float(nll.mean()), grad / n


def binary_cross_entropy(
    probs: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """BCE for sigmoid outputs; returns (loss, dL/dlogit) fused through the
    sigmoid (grad w.r.t. the pre-activation)."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    clipped = np.clip(probs, 1e-9, 1 - 1e-9)
    loss = -np.mean(labels * np.log(clipped) + (1 - labels) * np.log(1 - clipped))
    grad = (probs - labels).reshape(-1, 1) / probs.shape[0]
    return float(loss), grad


def iterate_minibatches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
):
    """Yield shuffled (x_batch, y_batch) pairs covering the dataset once."""
    n = len(x)
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield x[idx], y[idx]
