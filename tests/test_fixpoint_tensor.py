"""Unit tests for fixed-point tensors: construction and comparison."""

import numpy as np
import pytest

from repro.fixpoint import FIX8, FixTensor


class TestConstruction:
    def test_from_float(self):
        t = FixTensor.from_float([1.0, -2.5], FIX8)
        assert t.to_float().tolist() == [1.0, -2.5]

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(TypeError):
            FixTensor(np.array([1], dtype=np.int16), FIX8)


class TestComparison:
    def test_equality(self):
        a = FixTensor.from_float([1.0], FIX8)
        b = FixTensor.from_float([1.0], FIX8)
        assert a == b
        assert not (a == FixTensor.from_float([2.0], FIX8))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(FixTensor.from_float([1.0], FIX8))
