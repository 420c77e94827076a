"""Post-training quantization for Taurus models.

The paper quantizes trained float32 models to 8-bit fixed point (Table 3,
"using TensorFlow Lite") and reports negligible accuracy loss.  We implement
the equivalent machinery from scratch:

* :func:`choose_frac_bits` — pick a per-tensor binary point that covers an
  observed value range (symmetric, power-of-two scale, as fixed-point
  hardware requires).
* :class:`QuantizedLinear` — a Dense layer quantized to a given width with
  independent weight/bias/activation formats, evaluated with saturating
  integer arithmetic only.
* :func:`quantize_model` — walk a trained float DNN, calibrate each layer on
  a sample of inputs, and emit a fixed-point executable model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .formats import FixedPointFormat
from .tensor import FixTensor, _rounding_shift

__all__ = [
    "choose_frac_bits",
    "format_for_range",
    "QuantizedLinear",
    "QuantizedModel",
    "quantize_model",
]


def choose_frac_bits(values: np.ndarray, total_bits: int) -> int:
    """Choose the largest binary point that still covers ``values``.

    The scale is constrained to a power of two (a shift in hardware).  We
    find the smallest number of integer bits that represents
    ``max(|values|)`` without saturation and give every remaining bit to the
    fraction, maximizing resolution.
    """
    peak = float(np.max(np.abs(values))) if np.asarray(values).size else 0.0
    if peak == 0.0:
        return total_bits - 1
    int_bits = max(0, int(np.ceil(np.log2(peak + 1e-12))))
    # Guard: 2**int_bits must be >= peak (log2 rounding can undershoot by ulp).
    while (1 << int_bits) < peak and int_bits < total_bits - 1:
        int_bits += 1
    frac_bits = total_bits - 1 - int_bits
    return max(0, frac_bits)


def format_for_range(values: np.ndarray, total_bits: int = 8) -> FixedPointFormat:
    """Build a :class:`FixedPointFormat` calibrated to an observed range."""
    frac = choose_frac_bits(values, total_bits)
    return FixedPointFormat(total_bits=total_bits, frac_bits=frac, name=f"fix{total_bits}")


@dataclass
class QuantizedLinear:
    """A Dense layer executed entirely in fixed point.

    ``weights`` is (out, in); the layer computes
    ``act(clip(W @ x + b))`` using integer multiply-accumulate with a
    shift-based requantization step, the same structure the Taurus CU
    executes (map of multiplies, tree reduce, activation map).

    Quantization is per-channel for weights (each output row carries its
    own binary point, as TFLite does for Dense kernels) and per-tensor for
    inputs/outputs.  The accumulator row ``i`` holds
    ``w_frac[i] + in.frac`` fractional bits; a per-row arithmetic shift
    moves it to the output format — per-lane shift amounts are cheap in the
    CU's final stage.
    """

    weights: FixTensor              # nominal per-tensor view (size/format)
    bias: FixTensor                 # quantized in the *output* format
    activation: str                 # "relu", "linear", "sigmoid", "tanh"
    in_fmt: FixedPointFormat
    act_fmt: FixedPointFormat
    w_raw: np.ndarray | None = None    # per-channel storage (int rows)
    w_frac: np.ndarray | None = None   # per-row fractional bits

    def __post_init__(self) -> None:
        if self.w_raw is None:
            # Per-tensor fallback: every row shares the nominal format.
            self.w_raw = self.weights.raw.astype(self.weights.fmt.wide_dtype)
            self.w_frac = np.full(
                self.weights.raw.shape[0], self.weights.fmt.frac_bits, dtype=np.int64
            )
        self._prepare_mac()

    def _prepare_mac(self) -> None:
        """Derive the operands of :meth:`mac_raw` from the stored fields.

        A layer is immutable after construction (weight updates
        re-quantize into new layers), so this runs once per build — and
        once per unpickling: the operands are never pickled (see
        :meth:`__getstate__`), so a layer loaded under another version of
        this code runs that version's operands, not stale ones.
        """
        # One shift per output unit, a column: the MAC runs feature-major.
        self._shifts = (self.w_frac + self.in_fmt.frac_bits - self.act_fmt.frac_bits)[:, None]
        # Largest magnitude any step of the MAC can reach.  Integer-valued
        # float64 sums below 2^52 are exact whatever order BLAS adds them
        # in (and so is adding the rounding half), so the float matmul is
        # then the same function as the wide-integer one; otherwise stay on
        # the (slow, wrapping) integers.
        wide = np.iinfo(self.weights.fmt.wide_dtype)
        peak = self.w_raw.shape[1] * -self.in_fmt.raw_min * int(
            np.abs(self.w_raw).max(initial=0)
        )
        peak += 1 << max(int(self._shifts.max(initial=0)) - 1, 0)
        peak <<= max(-int(self._shifts.min(initial=0)), 0)
        peak += int(np.abs(self.bias.raw.astype(np.int64)).max(initial=0))
        acc_t = np.float64 if peak < min(wide.max, 1 << 52) else wide.dtype
        w = self.w_raw
        if acc_t is np.float64:
            # The shift's power-of-two factor rides in the weights: every
            # product and partial sum is the integer one times 2**-shift, exactly.
            w = w * np.ldexp(1.0, -self._shifts)
        # The left operand of ``W @ X``, C order: OpenBLAS threads small
        # gemms on a Fortran-order (transposed) operand.
        self._w = np.ascontiguousarray(w, dtype=acc_t)
        self._bias = self.bias.raw.astype(np.intp)[:, None]

    def __getstate__(self) -> dict:
        """The stored fields only: :meth:`__setstate__` re-derives the MAC
        operands with this code's :meth:`_prepare_mac`."""
        derived = ("_w", "_bias", "_shifts")
        return {k: v for k, v in self.__dict__.items() if k not in derived}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prepare_mac()

    def mac_raw(self, x_raw: np.ndarray, offset: int = 0) -> np.ndarray:
        """Raw in, raw out, feature-major: integer MAC, per-unit rounding
        shift, bias — not saturated.

        ``x_raw`` holds ``in_fmt`` raw values, ``(in, B)``, in any numeric
        dtype; the result holds the unsaturated ``act_fmt`` raw values less
        ``offset``, ``(out, B)`` intp (``offset=act_fmt.raw_min`` gives table
        indices: the offset folds into the bias, not a pass of its own).
        Saturation is the caller's: :meth:`linear` clips, and the compiled
        batch kernel of :func:`repro.mapreduce.frontend.dnn_graph` looks
        the index up with ``take(..., mode="clip")``, which saturates it —
        one MAC and one rounding shift for both.
        """
        acc = self._w @ np.asarray(x_raw, dtype=self._w.dtype)
        scaled = acc.dtype.kind == "f"  # the factor rides in the float weights
        # intp already for a float acc; an int32 one (fix8 weights) widens.
        raw = _rounding_shift(acc, self._shifts, scaled=scaled).astype(np.intp, copy=False)
        raw += self._bias - offset
        return raw

    def linear(self, x: np.ndarray) -> np.ndarray:
        """The layer's pre-activation output (integer MAC + requantize).

        Inputs are quantized to the input format on entry, mirroring the
        PHV -> fabric boundary where preprocessing MATs format features as
        fixed point.  This is exactly what a Taurus ``dot`` node computes,
        so the dataflow-graph execution can share it bit for bit.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        raw = self.mac_raw(self.in_fmt.quantize(x.T))
        np.clip(raw, self.act_fmt.raw_min, self.act_fmt.raw_max, out=raw)
        return self.act_fmt.dequantize(raw.T)

    def activate(self, pre_activation: np.ndarray) -> np.ndarray:
        """Apply the layer's activation in fixed point (a ``map`` node)."""
        return _apply_activation_fixed(pre_activation, self.activation, self.act_fmt)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Run the layer on a float input batch; returns float outputs."""
        return self.activate(self.linear(x))


def _apply_activation_fixed(
    x: np.ndarray, activation: str, fmt: FixedPointFormat
) -> np.ndarray:
    """Apply an activation and re-quantize the result to ``fmt``."""
    if activation == "linear":
        return x
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "leaky_relu":
        return fmt.roundtrip(np.where(x >= 0, x, 0.125 * x))
    if activation == "sigmoid":
        return fmt.roundtrip(1.0 / (1.0 + np.exp(-x)))
    if activation == "tanh":
        return fmt.roundtrip(np.tanh(x))
    if activation == "softmax":
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return fmt.roundtrip(e / e.sum(axis=-1, keepdims=True))
    raise ValueError(f"unknown activation: {activation}")


@dataclass
class QuantizedModel:
    """A stack of :class:`QuantizedLinear` layers."""

    layers: list[QuantizedLinear] = field(default_factory=list)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            out = layer(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class prediction by arg-max over the final layer."""
        return self(x).argmax(axis=-1)

    @property
    def weight_bytes(self) -> int:
        """Total model size in bytes (weights + biases at storage width)."""
        total = 0
        for layer in self.layers:
            width = layer.weights.fmt.total_bits // 8
            total += (layer.weights.size + layer.bias.size) * width
        return total


def quantize_model(dnn, calibration_x: np.ndarray, total_bits: int = 8) -> QuantizedModel:
    """Post-training quantization of a trained float DNN.

    Parameters
    ----------
    dnn:
        A :class:`repro.ml.dnn.DNN` (anything exposing ``layers`` with
        ``weights`` (out, in), ``bias`` and ``activation`` attributes, plus
        ``forward_upto(x, i)`` returning the input to layer ``i``).
    calibration_x:
        Representative inputs used to calibrate per-layer activation ranges,
        as TFLite does with a calibration dataset.
    total_bits:
        Storage width (8 for Taurus's fix8 datapath).
    """
    calibration_x = np.atleast_2d(np.asarray(calibration_x, dtype=np.float64))
    layers: list[QuantizedLinear] = []
    for i, layer in enumerate(dnn.layers):
        w = np.asarray(layer.weights, dtype=np.float64)
        b = np.asarray(layer.bias, dtype=np.float64)
        layer_in = dnn.forward_upto(calibration_x, i)
        pre_act = layer_in @ w.T + b
        # Per-channel weight binary points (TFLite-style for Dense kernels)
        # plus per-tensor input/output calibration; shift-based
        # requantization bridges them.
        w_fmt = format_for_range(np.concatenate([w.ravel(), [1e-3]]), total_bits)
        in_fmt = format_for_range(layer_in, total_bits)
        out_fmt = format_for_range(
            np.concatenate([pre_act.ravel(), b.ravel()]), total_bits
        )
        w_frac = np.array(
            [choose_frac_bits(np.append(row, 1e-3), total_bits) for row in w],
            dtype=np.int64,
        )
        w_raw = np.stack(
            [
                w_fmt.with_frac_bits(int(frac)).quantize(row).astype(np.int64)
                for row, frac in zip(w, w_frac)
            ]
        )
        layers.append(
            QuantizedLinear(
                weights=FixTensor.from_float(w, w_fmt),
                bias=FixTensor.from_float(b, out_fmt),
                activation=layer.activation,
                in_fmt=in_fmt,
                act_fmt=out_fmt,
                w_raw=w_raw,
                w_frac=w_frac,
            )
        )
    return QuantizedModel(layers)
