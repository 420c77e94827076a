"""LSTM for online congestion control (the Indigo benchmark).

"The online congestion-control algorithm (Indigo) is an LSTM.  Indigo uses
32 LSTM units followed by a softmax layer" (Section 5.1.2).  The network
maps a window of network observations (delay, delivery rate, cwnd, ...) to
one of a discrete set of congestion-window actions.

We implement a single-layer LSTM with a softmax head, trained by truncated
backpropagation through time — entirely in numpy.
"""

from __future__ import annotations

import numpy as np

from .activations import sigmoid, softmax
from .training import Adam, softmax_cross_entropy

__all__ = ["LSTM", "indigo_lstm"]


class LSTM:
    """Single-layer LSTM + softmax classifier over the final hidden state.

    Gate layout follows the standard (i, f, g, o) stacking: a single
    (4H, D + H) weight matrix computes all four gates per step — the same
    matrix-vector shape the Taurus frontend maps onto the fabric.
    """

    def __init__(self, input_size: int, hidden_size: int, n_actions: int, seed: int = 0):
        if min(input_size, hidden_size, n_actions) <= 0:
            raise ValueError("all dimensions must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.n_actions = n_actions
        self.rng = np.random.default_rng(seed)
        h, d = hidden_size, input_size
        scale = 1.0 / np.sqrt(d + h)
        self.w_gates = self.rng.uniform(-scale, scale, size=(4 * h, d + h))
        self.b_gates = np.zeros(4 * h)
        # Forget-gate bias starts at 1.0 (standard trick for gradient flow).
        self.b_gates[h : 2 * h] = 1.0
        out_scale = 1.0 / np.sqrt(h)
        self.w_out = self.rng.uniform(-out_scale, out_scale, size=(n_actions, h))
        self.b_out = np.zeros(n_actions)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def step(
        self, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """One LSTM timestep for a batch; returns (h, c, cache)."""
        concat = np.concatenate([x, h_prev], axis=-1)
        gates = concat @ self.w_gates.T + self.b_gates
        hs = self.hidden_size
        i = sigmoid(gates[..., 0 * hs : 1 * hs])
        f = sigmoid(gates[..., 1 * hs : 2 * hs])
        g = np.tanh(gates[..., 2 * hs : 3 * hs])
        o = sigmoid(gates[..., 3 * hs : 4 * hs])
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        cache = {"concat": concat, "i": i, "f": f, "g": g, "o": o, "c": c, "c_prev": c_prev}
        return h, c, cache

    def forward(self, sequences: np.ndarray) -> np.ndarray:
        """Action probabilities for a batch of sequences (n, T, D)."""
        logits, __ = self._forward_with_caches(sequences)
        return softmax(logits)

    def _forward_with_caches(
        self, sequences: np.ndarray
    ) -> tuple[np.ndarray, list[dict]]:
        seq = np.asarray(sequences, dtype=np.float64)
        if seq.ndim == 2:
            seq = seq[None, :, :]
        n, steps, __ = seq.shape
        h = np.zeros((n, self.hidden_size))
        c = np.zeros((n, self.hidden_size))
        caches: list[dict] = []
        for t in range(steps):
            h, c, cache = self.step(seq[:, t, :], h, c)
            cache["h"] = h
            caches.append(cache)
        logits = h @ self.w_out.T + self.b_out
        return logits, caches

    def predict(self, sequences: np.ndarray) -> np.ndarray:
        """Most likely action index per sequence."""
        return self.forward(sequences).argmax(axis=-1)

    # ------------------------------------------------------------------
    # Training (BPTT)
    # ------------------------------------------------------------------
    def train_batch(
        self, sequences: np.ndarray, actions: np.ndarray, optimizer: Adam
    ) -> float:
        """One BPTT gradient step; returns the batch loss."""
        seq = np.asarray(sequences, dtype=np.float64)
        if seq.ndim == 2:
            seq = seq[None, :, :]
        logits, caches = self._forward_with_caches(seq)
        loss, grad_logits = softmax_cross_entropy(logits, actions)

        h_final = caches[-1]["h"]
        grad_w_out = grad_logits.T @ h_final
        grad_b_out = grad_logits.sum(axis=0)
        grad_h = grad_logits @ self.w_out

        hs = self.hidden_size
        grad_w_gates = np.zeros_like(self.w_gates)
        grad_b_gates = np.zeros_like(self.b_gates)
        grad_c = np.zeros_like(grad_h)
        for t in reversed(range(len(caches))):
            cache = caches[t]
            i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
            c, c_prev = cache["c"], cache["c_prev"]
            tanh_c = np.tanh(c)
            grad_o = grad_h * tanh_c
            grad_c = grad_c + grad_h * o * (1.0 - tanh_c * tanh_c)
            grad_i = grad_c * g
            grad_g = grad_c * i
            grad_f = grad_c * c_prev
            grad_c = grad_c * f
            # Through the gate nonlinearities.
            d_gates = np.concatenate(
                [
                    grad_i * i * (1 - i),
                    grad_f * f * (1 - f),
                    grad_g * (1 - g * g),
                    grad_o * o * (1 - o),
                ],
                axis=-1,
            )
            grad_w_gates += d_gates.T @ cache["concat"]
            grad_b_gates += d_gates.sum(axis=0)
            grad_concat = d_gates @ self.w_gates
            grad_h = grad_concat[..., self.input_size :]

        for grad in (grad_w_gates, grad_b_gates, grad_w_out, grad_b_out):
            np.clip(grad, -5.0, 5.0, out=grad)
        optimizer.begin_step()
        optimizer.step(self.w_gates, grad_w_gates, key=0)
        optimizer.step(self.b_gates, grad_b_gates, key=1)
        optimizer.step(self.w_out, grad_w_out, key=2)
        optimizer.step(self.b_out, grad_b_out, key=3)
        return loss

    def fit(
        self,
        sequences: np.ndarray,
        actions: np.ndarray,
        epochs: int = 20,
        batch_size: int = 32,
        lr: float = 0.01,
    ) -> list[float]:
        """Train on (n, T, D) sequences with integer action labels."""
        seq = np.asarray(sequences, dtype=np.float64)
        acts = np.asarray(actions, dtype=np.int64)
        optimizer = Adam(lr=lr)
        losses = []
        n = len(seq)
        for __ in range(epochs):
            order = self.rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                epoch_losses.append(self.train_batch(seq[idx], acts[idx], optimizer))
            losses.append(float(np.mean(epoch_losses)))
        return losses

    @property
    def n_params(self) -> int:
        return (
            self.w_gates.size + self.b_gates.size + self.w_out.size + self.b_out.size
        )


def indigo_lstm(input_size: int = 5, n_actions: int = 5, seed: int = 0) -> LSTM:
    """The paper's Indigo configuration: 32 LSTM units + softmax head."""
    return LSTM(input_size=input_size, hidden_size=32, n_actions=n_actions, seed=seed)
