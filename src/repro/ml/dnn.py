"""Deep neural networks: the paper's primary per-packet model.

The running example is the Tang et al. anomaly-detection DNN — six KDD
features in, hidden layers of 12, 6, and 3 ReLU units, and a sigmoid output
(Section 5.1.2).  Table 3's IoT classifiers are small softmax DNNs
(e.g. 4x10x2).  Both are instances of :class:`DNN`.
"""

from __future__ import annotations

import numpy as np

from .activations import softmax
from .layers import Dense
from .training import (
    SGD,
    binary_cross_entropy,
    iterate_minibatches,
    softmax_cross_entropy,
)

__all__ = ["DNN", "anomaly_detection_dnn", "iot_classifier_dnn"]


class DNN:
    """A multilayer perceptron with manual backprop training.

    Parameters
    ----------
    layer_sizes:
        Unit counts including input and output, e.g. ``[6, 12, 6, 3, 1]``.
    output:
        ``"sigmoid"`` for binary heads, ``"softmax"`` for multiclass; every
        hidden layer is ReLU.
    seed:
        Seed for weight initialization and batching.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        output: str = "softmax",
        seed: int = 0,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if output not in ("sigmoid", "softmax", "linear"):
            raise ValueError(f"unsupported output head: {output!r}")
        if output == "sigmoid" and layer_sizes[-1] != 1:
            raise ValueError("sigmoid head requires a single output unit")
        self.layer_sizes = list(layer_sizes)
        self.output = output
        self.rng = np.random.default_rng(seed)
        self.layers: list[Dense] = []
        for i in range(len(layer_sizes) - 1):
            last = i == len(layer_sizes) - 2
            act = output if last else "relu"
            # Softmax is applied by the loss; the layer emits raw logits.
            layer_act = "linear" if (last and output == "softmax") else act
            self.layers.append(
                Dense(layer_sizes[i], layer_sizes[i + 1], layer_act, rng=self.rng)
            )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Probabilities (sigmoid/softmax head) or raw outputs (linear)."""
        out = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            out = layer.forward(out, train=train)
        if self.output == "softmax":
            return softmax(out)
        return out

    def forward_upto(self, x: np.ndarray, layer_index: int) -> np.ndarray:
        """Activations entering layer ``layer_index`` (quantization hook)."""
        out = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers[:layer_index]:
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels: thresholded for sigmoid heads, argmax for softmax."""
        probs = self.forward(x)
        if self.output == "sigmoid":
            return (probs.reshape(-1) >= threshold).astype(np.int64)
        return probs.argmax(axis=-1)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray, optimizer: SGD) -> float:
        """One gradient step on a batch; returns the batch loss."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = x
        for layer in self.layers[:-1]:
            out = layer.forward(out, train=True)
        head = self.layers[-1]
        if self.output == "softmax":
            logits = head.forward(out, train=True)
            loss, grad_z = softmax_cross_entropy(logits, y)
        else:
            probs = head.forward(out, train=True)
            loss, grad_z = binary_cross_entropy(probs, y)
        grad = grad_z
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            if i == len(self.layers) - 1:
                grad, grad_w, grad_b = layer.backward_from_logits(grad)
            else:
                grad, grad_w, grad_b = layer.backward(grad)
            optimizer.step(layer.weights, grad_w, key=2 * i)
            optimizer.step(layer.bias, grad_b, key=2 * i + 1)
        return loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 0.05,
    ) -> list[float]:
        """Minibatch SGD (momentum 0.9) over the dataset; returns the mean
        loss of each epoch."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y)
        optimizer = SGD(lr=lr, momentum=0.9)
        losses = []
        for __ in range(epochs):
            epoch_losses = [
                self.train_batch(xb, yb, optimizer)
                for xb, yb in iterate_minibatches(x, y, batch_size, self.rng)
            ]
            losses.append(float(np.mean(epoch_losses)))
        return losses

    @property
    def n_params(self) -> int:
        return sum(layer.n_params for layer in self.layers)


def anomaly_detection_dnn(seed: int = 0) -> DNN:
    """The paper's anomaly-detection DNN: 6 inputs, 12/6/3 hidden, sigmoid."""
    return DNN([6, 12, 6, 3, 1], output="sigmoid", seed=seed)


def iot_classifier_dnn(kernel: tuple[int, ...], seed: int = 0) -> DNN:
    """A Table 3 IoT classifier, e.g. kernel=(4, 10, 2) -> 4x10x2 softmax."""
    if len(kernel) < 2:
        raise ValueError("kernel needs at least input and output sizes")
    return DNN(list(kernel), output="softmax", seed=seed)
