"""Fixed-point arithmetic substrate (Taurus's fix8/fix16/fix32 datapath)."""

from .formats import FIX8, FIX16, FIX32, FixedPointFormat
from .quantize import (
    QuantizedLinear,
    QuantizedModel,
    format_for_range,
    quantize_model,
)
from .tensor import FixTensor

__all__ = [
    "FIX8",
    "FIX16",
    "FIX32",
    "FixedPointFormat",
    "FixTensor",
    "QuantizedLinear",
    "QuantizedModel",
    "format_for_range",
    "quantize_model",
]
