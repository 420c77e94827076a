"""Dense layers with manual backpropagation.

These are the building blocks of the paper's DNN benchmarks (the
anomaly-detection DNN of Tang et al. and the TMC IoT classifiers of
Table 3).  Implemented from scratch on numpy: forward pass, gradient pass,
and Glorot initialization.
"""

from __future__ import annotations

import numpy as np

from .activations import activation as _activation_fn

__all__ = ["Dense"]


class Dense:
    """A fully-connected layer ``act(W x + b)``.

    ``weights`` has shape (out_features, in_features) — the matrix-vector
    orientation Taurus's MapReduce block executes (one neuron per outer-map
    iteration, Fig. 4).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weights = rng.uniform(-limit, limit, size=(out_features, in_features))
        self.bias = np.zeros(out_features)
        self.activation = activation
        self._act = _activation_fn(activation)
        # Cached forward values for the backward pass.
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None

    @property
    def n_params(self) -> int:
        return self.weights.size + self.bias.size

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Compute ``act(x @ W.T + b)`` for a batch ``x`` of shape (n, in)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z = x @ self.weights.T + self.bias
        if train:
            self._x, self._z = x, z
        return self._act(z)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backprop through the layer.

        ``grad_out`` is dL/d(act output).  Returns (grad_x, grad_w, grad_b).
        Must follow a ``forward(..., train=True)`` call.
        """
        if self._x is None or self._z is None:
            raise RuntimeError("backward() called before forward(train=True)")
        grad_z = grad_out * self._activation_grad(self._z)
        grad_w = grad_z.T @ self._x
        grad_b = grad_z.sum(axis=0)
        grad_x = grad_z @ self.weights
        return grad_x, grad_w, grad_b

    def backward_from_logits(
        self, grad_z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backprop when the caller already differentiated through the
        activation (softmax/sigmoid + cross-entropy fuse into grad_z)."""
        if self._x is None:
            raise RuntimeError("backward called before forward(train=True)")
        grad_w = grad_z.T @ self._x
        grad_b = grad_z.sum(axis=0)
        grad_x = grad_z @ self.weights
        return grad_x, grad_w, grad_b

    def _activation_grad(self, z: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return (z > 0).astype(np.float64)
        if self.activation == "leaky_relu":
            return np.where(z > 0, 1.0, 0.125)
        if self.activation == "linear":
            return np.ones_like(z)
        if self.activation == "sigmoid":
            s = self._act(z)
            return s * (1.0 - s)
        if self.activation == "tanh":
            t = np.tanh(z)
            return 1.0 - t * t
        raise ValueError(
            f"cannot differentiate through activation {self.activation!r}; "
            "use backward_from_logits for softmax outputs"
        )
