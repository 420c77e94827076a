"""Activation functions and their hardware lowerings.

The paper evaluates seven line-rate activation implementations (Table 6,
Fig. 10): exact-by-construction ReLU/LeakyReLU, Taylor-series tanh/sigmoid
("TanhExp"/"SigmoidExp"), piecewise-linear approximations ("TanhPW"/
"SigmoidPW"), and a 1024-entry lookup table ("ActLUT").  Each variant is an
:class:`ActivationSpec` carrying

* the hardware approximation (what the fabric actually computes),
* its *op-chain length* — the number of dependent element-wise map
  operations in the longest basic block, which determines how many CU stages
  (and therefore CUs) the compiler must allocate (Fig. 10), and
* whether it needs an MU-resident lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ActivationSpec",
    "ACTIVATIONS",
    "activation",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "sigmoid_taylor",
    "tanh_taylor",
    "sigmoid_piecewise",
    "tanh_piecewise",
    "build_lut",
    "lut_activation",
]


# ----------------------------------------------------------------------
# Exact float implementations (used for training and as references)
# ----------------------------------------------------------------------
def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0)."""
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """x for x >= 0, x/8 otherwise (the slope is a power of two for HW)."""
    return np.where(x >= 0, x, 0.125 * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis (shift-stabilized)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ----------------------------------------------------------------------
# Taylor-series variants ("Exp" in the paper): range-reduced exponential
# ----------------------------------------------------------------------
def _exp_taylor(x: np.ndarray) -> np.ndarray:
    """exp(x) via range reduction (x = k*ln2 + r) and a 6-term Taylor polynomial.

    This is the scheme a fixed-function pipeline uses: the polynomial is a
    straight-line chain of multiply-adds (Horner form) plus a shift by k.
    """
    x = np.asarray(x, dtype=np.float64)
    k = np.floor(x / np.log(2.0) + 0.5)
    r = x - k * np.log(2.0)
    # Horner evaluation of sum r^i / i!
    poly = np.ones_like(r)
    for i in range(6, 0, -1):
        poly = poly * r / i + 1.0
    return poly * np.exp2(k)


def sigmoid_taylor(x: np.ndarray) -> np.ndarray:
    """Sigmoid built from the Taylor-series exponential (SigmoidExp)."""
    x = np.clip(np.asarray(x, dtype=np.float64), -8.0, 8.0)
    return 1.0 / (1.0 + _exp_taylor(-x))


def tanh_taylor(x: np.ndarray) -> np.ndarray:
    """tanh built from the Taylor-series exponential (TanhExp)."""
    x = np.clip(np.asarray(x, dtype=np.float64), -4.0, 4.0)
    e2 = _exp_taylor(2.0 * x)
    return (e2 - 1.0) / (e2 + 1.0)


# ----------------------------------------------------------------------
# Piecewise-linear variants ("PW"): segments with power-of-two slopes
# ----------------------------------------------------------------------
_SIGMOID_SEGMENTS = (
    # (x_low, slope, intercept) for x in [x_low, next x_low); slopes are
    # powers of two so the hardware lowers each segment to shift+add.
    (-np.inf, 0.0, 0.0),
    (-4.0, 0.03125, 0.145),
    (-2.0, 0.125, 0.35),
    (-1.0, 0.25, 0.5),
    (1.0, 0.125, 0.65),
    (2.0, 0.03125, 0.855),
    (4.0, 0.0, 1.0),
)


def sigmoid_piecewise(x: np.ndarray) -> np.ndarray:
    """7-segment piecewise-linear sigmoid (SigmoidPW)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for x_low, slope, intercept in _SIGMOID_SEGMENTS:
        mask = x >= x_low
        out = np.where(mask, slope * x + intercept, out)
    return np.clip(out, 0.0, 1.0)


def tanh_piecewise(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear tanh via the sigmoid identity (TanhPW)."""
    return 2.0 * sigmoid_piecewise(2.0 * np.asarray(x, dtype=np.float64)) - 1.0


# ----------------------------------------------------------------------
# LUT variant (ActLUT): 1024 x 8-bit entries in an MU
# ----------------------------------------------------------------------
#: The ActLUT table: 1024 entries over [-8, 8].
_LUT_X_MIN, _LUT_X_MAX, _LUT_ENTRIES = -8.0, 8.0, 1024


def build_lut(fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Precompute a lookup table for ``fn`` (paper: 1024 8-bit entries)."""
    xs = np.linspace(_LUT_X_MIN, _LUT_X_MAX, _LUT_ENTRIES)
    ys = fn(xs)
    levels = (1 << 8) - 1
    lo, hi = float(ys.min()), float(ys.max())
    span = (hi - lo) or 1.0
    codes = np.rint((ys - lo) / span * levels)
    return lo + codes / levels * span


def lut_activation(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Return a callable that evaluates ``fn`` through a quantized LUT."""
    table = build_lut(fn)

    def apply(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        idx = np.rint((x - _LUT_X_MIN) / (_LUT_X_MAX - _LUT_X_MIN) * (_LUT_ENTRIES - 1))
        idx = np.clip(idx, 0, _LUT_ENTRIES - 1).astype(np.int64)
        return table[idx]

    return apply


# ----------------------------------------------------------------------
# Hardware activation registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ActivationSpec:
    """A line-rate activation implementation.

    ``chain_ops`` is the length of the dependent element-wise op chain the
    compiler must schedule: CUs provide ``stages`` map slots each, so the
    block uses ``ceil(chain_ops / stages)`` CUs (Fig. 10).  ``lut_tables``
    counts MU-resident lookup tables (ActLUT only).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    chain_ops: int
    lut_tables: int = 0


ACTIVATIONS: dict[str, ActivationSpec] = {
    # max(x,0): a single select op.
    "relu": ActivationSpec("relu", relu, chain_ops=1),
    # mul by power-of-two slope + select.
    "leaky_relu": ActivationSpec("leaky_relu", leaky_relu, chain_ops=2),
    # Range reduction (3 ops) + 6-term Horner (12 ops) + reconstruction +
    # tanh algebra (divide via iteration): longest basic block ~22 ops.
    "tanh_exp": ActivationSpec("tanh_exp", tanh_taylor, chain_ops=22),
    # Sigmoid needs an extra negate/offset + reciprocal refinement: ~26 ops.
    "sigmoid_exp": ActivationSpec("sigmoid_exp", sigmoid_taylor, chain_ops=26),
    # Segment compare/select ladder (7 segments -> ~11 dependent ops after
    # the 2x input/output scaling of the tanh identity).
    "tanh_pw": ActivationSpec("tanh_pw", tanh_piecewise, chain_ops=11),
    "sigmoid_pw": ActivationSpec("sigmoid_pw", sigmoid_piecewise, chain_ops=14),
    # Address computation (scale, clamp, round) + table read + rescale: ~6
    # ops across two CUs plus one MU table.
    "act_lut": ActivationSpec("act_lut", lut_activation(tanh), chain_ops=6, lut_tables=1),
}


def activation(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Look up an exact activation by the name used in model configs."""
    table: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "relu": relu,
        "leaky_relu": leaky_relu,
        "sigmoid": sigmoid,
        "tanh": tanh,
        "linear": lambda x: x,
        "softmax": softmax,
    }
    if name not in table:
        raise ValueError(f"unknown activation: {name!r}")
    return table[name]
