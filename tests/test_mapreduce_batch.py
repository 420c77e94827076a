"""Batched dataflow execution: bit-identity, epilogue, and input contracts.

One packet is a one-row batch:
``execute_batch(stack(xs)) == stack(execute(x) for x in xs)`` bit-for-bit,
for every app graph and fixed-point format.  Epilogue nodes run exactly
once (after the last temporal iteration), and input features reach node
callables as read-only views.
"""

import copy
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    dnn_feature_matrix,
    generate_congestion_traces,
    iot_cluster_dataset,
    svm_feature_matrix,
)
from repro.fixpoint import (
    FIX8,
    FIX16,
    FIX32,
    FixedPointFormat,
    FixTensor,
    QuantizedLinear,
    QuantizedModel,
    quantize_model,
)
from repro.mapreduce import (
    frontend,
    activation_graph,
    conv1d_graph,
    dnn_graph,
    inner_product_graph,
    kmeans_graph,
    lstm_graph,
    svm_graph,
)
from repro.mapreduce.ir import DataflowGraph
from repro.mapreduce.ops import REDUCE_OPS
from repro.ml import KMeans, LSTM, indigo_lstm
from repro.ml.activations import tanh_piecewise


def assert_batch_matches_scalar(graph, feats):
    """execute_batch == stacked scalar execute, bit-for-bit."""
    batched = graph.execute_batch(feats)
    scalar = np.stack([graph.execute(row) for row in feats])
    assert batched.shape == scalar.shape
    assert np.array_equal(batched, scalar)


# ----------------------------------------------------------------------
# Property: batch == scalar across the app graphs, FIX8 and FIX16
# ----------------------------------------------------------------------
class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("total_bits", [8, 16])
    @pytest.mark.parametrize("exact", [False, True])
    def test_dnn(self, trained_dnn, train_test_split, total_bits, exact):
        train, test = train_test_split
        q = quantize_model(trained_dnn, dnn_feature_matrix(train)[:256], total_bits)
        graph = dnn_graph(q, exact_activations=exact)
        feats = dnn_feature_matrix(test)[:96]
        assert_batch_matches_scalar(graph, feats)

    @pytest.mark.parametrize("fmt", [FIX8, FIX16], ids=lambda f: f.name)
    def test_svm(self, trained_svm, train_test_split, fmt):
        __, test = train_test_split
        graph = svm_graph(trained_svm, fmt=fmt)
        assert_batch_matches_scalar(graph, svm_feature_matrix(test)[:96])

    @pytest.mark.parametrize("fmt", [FIX8, FIX16], ids=lambda f: f.name)
    def test_kmeans(self, fmt):
        features, __ = iot_cluster_dataset(600, seed=7)
        model = KMeans(n_clusters=5, seed=7).fit(features)
        graph = kmeans_graph(model, fmt=fmt)
        assert_batch_matches_scalar(graph, features[:96])

    @pytest.mark.parametrize("fmt", [FIX8, FIX16], ids=lambda f: f.name)
    def test_lstm_temporal(self, fmt):
        """The recurrent graph: per-batch state + once-only epilogue."""
        seqs, __ = generate_congestion_traces(64, seed=4)
        lstm = indigo_lstm(input_size=seqs.shape[-1], n_actions=5, seed=0)
        graph = lstm_graph(lstm, window_steps=seqs.shape[1], fmt=fmt)
        assert_batch_matches_scalar(graph, seqs.reshape(len(seqs), -1))

    def test_microbenchmarks(self):
        rng = np.random.default_rng(3)
        cases = [
            (inner_product_graph(16), 16),
            (activation_graph("relu"), 16),
            (activation_graph("act_lut"), 16),
            (conv1d_graph(unroll=8), 9),
            (conv1d_graph(unroll=2), 9),
        ]
        for graph, dim in cases:
            feats = rng.uniform(-2, 2, size=(48, dim))
            assert_batch_matches_scalar(graph, feats)

    def test_batch_rejects_non_2d(self):
        graph = inner_product_graph(16)
        with pytest.raises(ValueError, match="expects"):
            graph.execute_batch(np.ones(16))

    def test_execute_rejects_non_1d(self):
        """One answer cannot stand for several packets: a (3, D) block
        used to come back as row 0's answer alone, and a 0-d value
        broadcast across the inner product's 16 lanes."""
        features, __ = iot_cluster_dataset(600, seed=7)
        graph = kmeans_graph(KMeans(n_clusters=5, seed=7).fit(features))
        with pytest.raises(ValueError, match=r"expects \(D,\) features"):
            graph.execute(features[:3])
        with pytest.raises(ValueError, match=r"expects \(D,\) features"):
            inner_product_graph(16).execute(np.float64(0.5))

    def test_reduce_node_without_fn_uses_named_op(self):
        """Reduce nodes lowered without fn fall back to REDUCE_OPS."""
        g = DataflowGraph("opreduce")
        inp = g.add("input", name="x", width=4)
        red = g.add("reduce", preds=[inp], name="maxval", width=4, reduce_op="max")
        g.add("output", preds=[red], name="y", width=1)
        feats = np.array([[1.0, 7.0, 3.0, 2.0], [9.0, 0.0, 4.0, 5.0]])
        assert np.array_equal(g.execute(feats[0]), [7.0])
        assert np.array_equal(g.execute_batch(feats), [[7.0], [9.0]])


# ----------------------------------------------------------------------
# The compiled DNN kernel == the node-at-a-time interpreter, bit for bit
# ----------------------------------------------------------------------
def _noop(node, value, iteration):
    """An observer: its presence forces the reference interpreter."""


def _saturate(raw, fmt):
    """Wide integers clipped into ``fmt``'s raw range, in its storage dtype."""
    return np.clip(raw, fmt.raw_min, fmt.raw_max).astype(fmt.storage_dtype)


def _layer(w_raw, w_frac, bias_raw, activation, in_fmt, act_fmt):
    """A hand-built per-channel layer (what ``quantize_model`` emits)."""
    w_raw = np.asarray(w_raw, dtype=np.int64)
    w_fmt = FixedPointFormat(in_fmt.total_bits, 0, in_fmt.name)
    return QuantizedLinear(
        weights=FixTensor(_saturate(w_raw, w_fmt), w_fmt),
        bias=FixTensor(_saturate(bias_raw, act_fmt), act_fmt),
        activation=activation,
        in_fmt=in_fmt,
        act_fmt=act_fmt,
        w_raw=w_raw,
        w_frac=np.asarray(w_frac, dtype=np.int64),
    )


def _raw_domain(fmt):
    """Every representable value of ``fmt``, one per row."""
    return fmt.dequantize(np.arange(fmt.raw_min, fmt.raw_max + 1))[:, None]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _assert_same_state(state, reference):
    assert state.keys() == reference.keys()
    for key, value in reference.items():
        assert _same(state[key], value), key


def assert_kernel_matches_reference(graph, feats, scalar_rows=None):
    """Fused ``execute_batch`` == observed interpreter == scalar rows, in
    the values returned and in the ``state`` left behind."""
    assert graph.kernel is not None
    before = feats.copy()
    fused_state, reference_state = {}, {}
    fused = graph.execute_batch(feats, state=fused_state)
    assert fused.ndim == 2
    assert np.array_equal(feats, before, equal_nan=True)  # not mutated
    reference = graph.execute_batch(feats, state=reference_state, observer=_noop)
    assert _same(fused, reference)
    _assert_same_state(fused_state, reference_state)
    rows = range(len(feats)) if scalar_rows is None else scalar_rows
    for b in rows:
        row_state = {}
        assert np.array_equal(graph.execute(feats[b], state=row_state), fused[b])
        assert row_state.keys() == fused_state.keys()
        for key in row_state.keys() - {"iteration"}:  # scalar state is (1, width)
            assert np.array_equal(row_state[key][0], fused_state[key][b]), key
    return fused, fused_state


ELEMENTWISE = ("linear", "relu", "leaky_relu", "sigmoid", "tanh")


class TestKernelTables:
    @pytest.mark.parametrize("exact", [False, True], ids=["hw", "exact"])
    @pytest.mark.parametrize("activation", ELEMENTWISE)
    @pytest.mark.parametrize("bits,frac,next_frac", [(8, 4, 6), (8, 7, 0), (16, 8, 11)])
    def test_every_raw_value_of_every_hop(self, bits, frac, next_frac, activation, exact):
        """Exhaustive, not sampled: identity MACs sweep the producer
        format's whole raw domain through each kind of table — a hop into
        a next layer with a different binary point, and the last table's
        float scores."""
        fmt = FixedPointFormat(bits, frac, f"fix{bits}")
        nxt = FixedPointFormat(bits, next_frac, f"fix{bits}")
        # weight 1.0 at w_frac 0, in_fmt == act_fmt: shift 0, raw out == raw in.
        sweep = _layer([[1]], [0], [0], activation, fmt, fmt)
        passthrough = _layer([[1]], [0], [0], "linear", nxt, nxt)
        domain = _raw_domain(fmt)
        assert np.array_equal(sweep.linear(domain), domain)  # the sweep is total
        for layers in ([sweep], [sweep, passthrough]):
            graph = dnn_graph(QuantizedModel(layers), exact_activations=exact)
            assert_kernel_matches_reference(
                graph, domain, scalar_rows=range(0, len(domain), 257)
            )


@st.composite
def quantized_models(draw):
    """1-4 layers, fan-in 1-64, 8- or 16-bit, raw weights / biases and
    per-row binary points anywhere in the format, so the requantize shift
    ``w_frac + in.frac - act.frac`` lands on every sign."""
    bits = draw(st.sampled_from([8, 16]))
    widths = draw(st.lists(st.integers(1, 64), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = -(1 << (bits - 1)), 1 << (bits - 1)
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        in_frac, act_frac = draw(st.integers(0, bits - 1)), draw(st.integers(0, bits - 1))
        layers.append(_layer(
            rng.integers(lo, hi, size=(fan_out, fan_in)),
            rng.integers(0, bits, size=fan_out),
            rng.integers(lo, hi, size=fan_out),
            draw(st.sampled_from(ELEMENTWISE)),
            FixedPointFormat(bits, in_frac, f"fix{bits}"),
            FixedPointFormat(bits, act_frac, f"fix{bits}"),
        ))
    return QuantizedModel(layers)


def feature_rows(width, fmt, units):
    """Rows mixing ordinary values, non-finite / huge ones, and the
    half-ulp points where ``in_fmt.quantize`` rounds to even.

    Batches of 0-6 drawn rows, or of ``u - 1``, ``u`` or ``u + 1`` rows for
    each width ``u`` in ``units`` and a few hundred rows (the drawn rows
    spread over seeded random ones): a feature-major kernel that mixes up
    ``(B, units)`` and ``(units, B)``, or broadcasts a bias along the wrong
    axis, cannot hide behind a batch that is tiny or square."""
    special = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0]
    half_ulp = st.integers(fmt.raw_min - 2, fmt.raw_max + 2).map(
        lambda k: (k + 0.5) / fmt.scale
    )
    bound = 2 * fmt.max_value + 1
    value = st.one_of(st.floats(-bound, bound), st.sampled_from(special), half_ulp)
    row = st.lists(value, min_size=width, max_size=width)
    drawn = st.lists(row, min_size=0, max_size=6).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), width)
    )

    def spread(rows, n, seed):
        rng = np.random.default_rng(seed)
        out = rng.uniform(-bound, bound, size=(n, width))
        on_grid = rng.random(n) < 0.5
        out[on_grid] = fmt.roundtrip(out[on_grid])
        odd = rng.random(out.shape) < 0.02
        out[odd] = rng.choice(special, size=int(odd.sum()))
        out[rng.choice(n, size=min(n, len(rows)), replace=False)] = rows[:n]
        return out

    sizes = sorted({u + d for u in units for d in (-1, 0, 1) if u + d > 0} | {200, 333})
    return st.one_of(
        drawn, st.builds(spread, drawn, st.sampled_from(sizes), st.integers(0, 2**32 - 1))
    )


class TestKernelProperty:
    # The exact sigmoid overflows exp() at the far end of a coarse fix16
    # format, in the interpreter and the table fill alike.
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_models_and_inputs(self, data):
        model = data.draw(quantized_models())
        exact = data.draw(st.booleans())
        graph = dnn_graph(model, exact_activations=exact)
        first = model.layers[0]
        units = [layer.w_raw.shape[0] for layer in model.layers]
        feats = data.draw(feature_rows(first.w_raw.shape[1], first.in_fmt, units))
        # Every row is checked against the interpreter; a sample one by one.
        assert_kernel_matches_reference(graph, feats, range(0, len(feats), 1 + len(feats) // 8))
        if exact and len(feats):  # and with the model it was lowered from
            assert np.array_equal(graph.execute_batch(feats), model(feats))


class TestKernelFallbacks:
    def _feats(self, n=5):
        return FIX8.roundtrip(np.random.default_rng(2).uniform(-2, 2, size=(n, 6)))

    def test_fix32_model_runs_the_interpreter(self, trained_dnn, train_test_split):
        train, __ = train_test_split
        q = quantize_model(trained_dnn, dnn_feature_matrix(train)[:64], 32)
        graph = dnn_graph(q, exact_activations=True)
        assert graph.kernel is None
        assert_batch_matches_scalar(graph, self._feats())

    def test_row_wise_activation_runs_the_interpreter(self):
        fmt = FixedPointFormat(8, 4, "fix8")
        head = _layer([[16, 0], [0, 16], [8, 8]], [4, 4, 4], [0, 0, 0],
                      "softmax", fmt, fmt)
        graph = dnn_graph(QuantizedModel([head]), exact_activations=True)
        assert graph.kernel is None
        feats = self._feats()[:, :2]
        assert_batch_matches_scalar(graph, feats)
        assert np.array_equal(graph.execute_batch(feats), head(feats))

    def test_add_after_lowering_drops_the_kernel(self, quantized_dnn):
        graph = dnn_graph(quantized_dnn)
        feats = self._feats()
        scores = graph.execute_batch(feats)
        out = graph.outputs()[0]
        negate = graph.add(
            "map", preds=[graph.nodes[out.preds[0]]], name="negate",
            width=out.width, chain_ops=1, fn=np.negative,
        )
        out.preds = [negate.node_id]
        assert graph.kernel is None
        assert np.array_equal(graph.execute_batch(feats), -scores)
        assert_batch_matches_scalar(graph, feats)

    @pytest.mark.parametrize("batch", [0, 1])
    def test_degenerate_batches(self, quantized_dnn, batch):
        graph = dnn_graph(quantized_dnn)
        feats = self._feats(batch)
        assert graph.execute_batch(feats).shape == (batch, 1)
        assert_kernel_matches_reference(graph, feats)

    def test_state_dict_sees_the_interpreters_iteration(self, quantized_dnn):
        graph = dnn_graph(quantized_dnn)
        fused, reference = {}, {}
        graph.execute_batch(self._feats(), state=fused)
        graph.execute_batch(self._feats(), state=reference, observer=_noop)
        assert fused == reference == {"iteration": 0}


# ----------------------------------------------------------------------
# The compiled LSTM kernel == the interpreter == scalar rows, state included
# ----------------------------------------------------------------------
def _lstm(dim, hidden, actions, seed=0, gain=1.0):
    """A random LSTM; ``gain`` > 1 drives the gates into saturation."""
    lstm = LSTM(dim, hidden, actions, seed=seed)
    rng = np.random.default_rng(seed + 1)
    lstm.b_gates = lstm.b_gates + rng.uniform(-0.5, 0.5, size=4 * hidden)
    lstm.b_out = rng.uniform(-0.5, 0.5, size=actions)
    for name in ("w_gates", "b_gates", "w_out", "b_out"):
        setattr(lstm, name, getattr(lstm, name) * gain)
    return lstm


def _lstm_rows(rng, batch, width, fmt):
    """Rows on and off the grid, inside and beyond the range, with NaN,
    +/-inf and huge values sprinkled in."""
    rows = rng.uniform(fmt.min_value, fmt.max_value, size=(batch, width))
    rows *= rng.choice([0.1, 1.0, 4.0], size=(batch, 1))
    on_grid = rng.random(batch) < 0.5
    rows[on_grid] = fmt.roundtrip(rows[on_grid])
    special = rng.random(rows.shape) < 0.02
    rows[special] = rng.choice(
        [np.nan, np.inf, -np.inf, 1e300, -1e300], size=int(special.sum())
    )
    return rows


def _tile_rows(dim, hidden):
    """The compiled recurrence's tile (packets per gate matmul), from its
    private work bound (the matmul is ``(4H, D+H+1) @ (D+H+1, tile)``)."""
    return max(1, frontend._SERIAL_GEMM_WORK // ((dim + hidden + 1) * 4 * hidden))


def _boundary_rows(batch, tile):
    """Scalar-checked rows: both ends and both sides of every tile edge."""
    edges = {0, batch - 1}
    for edge in range(tile, batch, tile):
        edges |= {edge - 1, edge}
    return sorted(b for b in edges if 0 <= b < batch)


class TestLstmKernelProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        hidden=st.sampled_from([4, 32, 64]),
        dim=st.sampled_from([1, 5]),
        actions=st.sampled_from([2, 5]),
        gain=st.sampled_from([1.0, 6.0]),
        fmt=st.sampled_from([FIX8, FIX16]),
        steps=st.sampled_from([1, 2, 8]),
        # batch = k * tile + extra: 0, 1, tile - 1, tile, tile + 1, 3 * tile + 5
        tiles=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_lstms_and_windows(
        self, hidden, dim, actions, gain, fmt, steps, tiles, seed
    ):
        tile = _tile_rows(dim, hidden)
        batch = tiles[0] * tile + tiles[1]
        graph = lstm_graph(
            _lstm(dim, hidden, actions, seed % 1000, gain), window_steps=steps, fmt=fmt
        )
        feats = _lstm_rows(np.random.default_rng(seed), batch, steps * dim, fmt)
        fused, state = assert_kernel_matches_reference(
            graph, feats, scalar_rows=_boundary_rows(batch, tile)
        )
        assert fused.shape == (batch, 1) and np.issubdtype(fused.dtype, np.integer)
        assert state["h"].shape == state["c"].shape == (batch, hidden)

    def test_tile_is_sized_from_the_step_shape(self, monkeypatch):
        """Every gate mat-vec stays under the private BLAS work bound — a
        wider LSTM gets a smaller tile, not a threaded gemm — and the
        analyser's kernel probe is sized for the shipped tile."""
        from repro.analysis.ir_verify import _KERNEL_PROBE_ROWS

        assert frontend._SERIAL_GEMM_WORK < 10**6  # OpenBLAS's threshold
        assert _tile_rows(5, 32) == 161 and _tile_rows(5, 64) == 43
        assert _KERNEL_PROBE_ROWS > 2 * 161 and _KERNEL_PROBE_ROWS % 161
        calls = []
        real = np.matmul

        def spy(a, b, **kwargs):
            calls.append(a.shape[0] * a.shape[1] * b.shape[1])
            return real(a, b, **kwargs)

        graph = lstm_graph(_lstm(5, 64, 5), window_steps=2)
        feats = _lstm_rows(np.random.default_rng(0), 3 * 44 + 5, 10, FIX8)
        monkeypatch.setattr(np, "matmul", spy)
        graph.execute_batch(feats)
        assert len(calls) == 2 * 4 and max(calls) <= frontend._SERIAL_GEMM_WORK


class TestLstmKernelAccumulators:
    """The kernel's float32 accumulator (FIX8's partial sums stay under
    2^24) == a float64 one == the interpreter, bit for bit, including
    gate pre-activations that sit exactly on a rounding tie."""

    DIM, HIDDEN, STEPS = 5, 32, 8

    @pytest.fixture(scope="class")
    def lstm(self):
        """Input 0's gate weights are +-0.5 and +-1.5, so with ``h = 0`` a
        step input of ``1 / scale`` on input 0 alone puts every gate on
        ``raw bias +- 0.5`` or ``+- 1.5``: a rounding tie."""
        lstm = _lstm(self.DIM, self.HIDDEN, 5, seed=11)
        lstm.w_gates[:, 0] = np.resize([0.5, -0.5, 1.5, -1.5], 4 * self.HIDDEN)
        return lstm

    def _rows(self, batch):
        """Random rows, every tenth a window of ``1 / scale`` on input 0
        (its first step ties every gate)."""
        feats = _lstm_rows(np.random.default_rng(batch), batch, self.STEPS * self.DIM, FIX8)
        tie = np.zeros((self.STEPS, self.DIM))
        tie[:, 0] = 1 / FIX8.scale
        feats[::10] = tie.ravel()
        return feats

    def _ties(self, lstm, feats):
        """Step 0's gate pre-activations (``h = 0``) on a .5 tie, split by
        the parity of the integer below them."""
        w_raw = FIX8.quantize(np.clip(lstm.w_gates, FIX8.min_value, FIX8.max_value))
        b_raw = FIX8.quantize(np.clip(lstm.b_gates, FIX8.min_value, FIX8.max_value))
        x_raw = FIX8.quantize(feats[:, : self.DIM]).astype(np.int64)
        numerator = x_raw @ w_raw[:, : self.DIM].T.astype(np.int64) + b_raw * int(FIX8.scale)
        tied = numerator % int(FIX8.scale) == int(FIX8.scale) // 2
        below = numerator[tied] // int(FIX8.scale)
        return int((below % 2 == 0).sum()), int((below % 2 == 1).sum())

    @pytest.mark.parametrize("tiles", [(0, 1), (1, -1), (1, 1), (3, 0)])
    def test_float32_equals_float64(self, lstm, tiles, monkeypatch):
        tile = _tile_rows(self.DIM, self.HIDDEN)
        feats = self._rows(tiles[0] * tile + tiles[1])
        even, odd = self._ties(lstm, feats)
        assert even > 0 and odd > 0
        narrow = lstm_graph(lstm, window_steps=self.STEPS)
        monkeypatch.setattr(frontend, "_EXACT_F32_LIMIT", 0)
        wide = lstm_graph(lstm, window_steps=self.STEPS)
        accumulators = []
        real = np.matmul

        def spy(a, b, **kwargs):
            # A Fortran-order weight makes OpenBLAS thread this small gemm;
            # the weight is the left operand, the right a column tile.
            assert a.flags.c_contiguous
            accumulators.append(kwargs["out"].dtype)
            return real(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        outcomes = []
        for graph in (narrow, wide):
            state = {}
            actions = graph.execute_batch(feats, state=state)
            outcomes.append((actions, state))
        monkeypatch.undo()
        per_graph = len(accumulators) // 2
        assert set(accumulators[:per_graph]) == {np.dtype(np.float32)}
        assert set(accumulators[per_graph:]) == {np.dtype(np.float64)}
        (actions, state), (wide_actions, wide_state) = outcomes
        assert _same(actions, wide_actions) and actions.tobytes() == wide_actions.tobytes()
        for key in ("h", "c"):
            assert state[key].tobytes() == wide_state[key].tobytes(), key
        assert_kernel_matches_reference(narrow, feats, scalar_rows=[0, len(feats) - 1])


class TestLstmKernelFallbacks:
    def _case(self, fmt=FIX8, batch=7):
        graph = lstm_graph(_lstm(5, 32, 5), window_steps=4, fmt=fmt)
        return graph, _lstm_rows(np.random.default_rng(5), batch, 20, fmt)

    def test_fix32_runs_the_interpreter(self):
        graph, feats = self._case(FIX32)
        assert graph.kernel is None
        assert_batch_matches_scalar(graph, feats)

    def test_failed_exactness_bound_runs_the_interpreter(self, monkeypatch):
        """No proof that every partial sum is an exact integer, no kernel."""
        monkeypatch.setattr(frontend, "_EXACT_SUM_LIMIT", 1 << 12)
        graph, feats = self._case()
        assert graph.kernel is None
        assert_batch_matches_scalar(graph, feats)

    def test_add_after_lowering_drops_the_kernel(self):
        graph, feats = self._case()
        assert graph.kernel is not None
        actions = graph.execute_batch(feats)
        out = graph.outputs()[0]
        negate = graph.add(
            "map", preds=[graph.nodes[out.preds[0]]], name="negate", width=1,
            chain_ops=1, fn=np.negative, epilogue=True,
        )
        out.preds = [negate.node_id]
        assert graph.kernel is None
        assert np.array_equal(graph.execute_batch(feats), -actions)

    @pytest.mark.parametrize("seeded", ["h", "c", "both"])
    def test_seeded_state_runs_the_interpreter(self, seeded):
        """A caller-provided ``h`` / ``c`` (off the grid: a raw-domain
        kernel could not even represent it) is honoured, not ignored."""
        graph, feats = self._case()
        rng = np.random.default_rng(9)
        seed = {
            key: rng.uniform(-1, 1, size=(len(feats), 32))
            for key in ("h", "c") if seeded in (key, "both")
        }
        fused_state = {k: v.copy() for k, v in seed.items()}
        reference_state = {k: v.copy() for k, v in seed.items()}
        fused = graph.execute_batch(feats, state=fused_state)
        reference = graph.execute_batch(feats, state=reference_state, observer=_noop)
        assert _same(fused, reference)
        _assert_same_state(fused_state, reference_state)
        unseeded = {}
        graph.execute_batch(feats, state=unseeded)
        assert not np.array_equal(unseeded["c"], fused_state["c"])  # the seed mattered

    def test_reused_state_dict_continues_the_recurrence(self):
        """The second call on one dict sees the first call's ``h`` / ``c``,
        exactly as it does node by node."""
        graph, feats = self._case()
        fused_state, reference_state = {}, {}
        for __ in range(2):
            fused = graph.execute_batch(feats, state=fused_state)
            reference = graph.execute_batch(feats, state=reference_state, observer=_noop)
            assert _same(fused, reference)
            _assert_same_state(fused_state, reference_state)


class TestLstmFixedPointEdges:
    """Hand-built one-unit LSTMs that park each requantisation point of the
    step — gate pre-activation, ``c``, ``h`` — on its edges: exact rounding
    ties of both signs, the format's ``raw_min`` / ``raw_max``, and the
    first / last entry of every activation table."""

    Q0_7 = FixedPointFormat(8, 7, "fix8")
    Q3_12 = FixedPointFormat(16, 12, "fix16")

    @staticmethod
    def _unit_lstm(w_x, w_h, bias, actions=2):
        """``hidden = dim = 1``; per-gate (i, f, g, o) weights on x and h."""
        lstm = LSTM(1, 1, actions)
        lstm.w_gates = np.column_stack([w_x, w_h]).astype(np.float64)
        lstm.b_gates = np.asarray(bias, dtype=np.float64)
        lstm.w_out = np.linspace(-1.0, 1.0, actions)[:, None]
        lstm.b_out = np.zeros(actions)
        return lstm

    @staticmethod
    def _observed(graph, feats, name):
        """Every value node ``name`` takes while the interpreter runs."""
        seen = []

        def observer(node, value, iteration):
            if node.name == name:
                seen.append(np.array(value))

        state = {}
        graph.execute_batch(feats, state=state, observer=observer)
        return np.stack(seen), state

    @pytest.mark.parametrize("fmt", [FIX8, FIX16, Q0_7], ids=str)
    def test_gate_ties_round_half_to_even(self, fmt):
        """Weight = one raw unit: the accumulator is ``x_raw``, a tie at
        every ``x_raw = scale/2 (mod scale)``.  ``rint`` sends 2.5 to 2 and
        -2.5 to -2; a ``+ scale/2 >> frac`` shift would give 3 and -2."""
        ulp = fmt.resolution
        graph = lstm_graph(
            self._unit_lstm([ulp] * 4, [0] * 4, [0] * 4), window_steps=1, fmt=fmt
        )
        feats = _raw_domain(fmt)
        gates, __ = self._observed(graph, feats, "gate_matvec")
        half = int(fmt.scale) // 2
        for x_raw, want in [(half, 0), (3 * half, 2), (5 * half, 2),
                            (-half, 0), (-3 * half, -2), (-5 * half, -2)]:
            if fmt.raw_min <= x_raw <= fmt.raw_max:
                assert gates[0, x_raw - fmt.raw_min, 0] * fmt.scale == want
        assert_kernel_matches_reference(graph, feats, scalar_rows=range(0, len(feats), 37))

    @pytest.mark.parametrize("fmt", [FIX8, FIX16, Q0_7], ids=str)
    def test_gate_preactivation_sweeps_every_table_entry(self, fmt):
        """Weight 1.0 (``max_value`` where 1.0 does not fit): each gate's
        pre-activation takes every raw value, ``raw_min`` and ``raw_max``
        included, so the first and last entry of the sigmoid and the tanh
        table are both read.  Two steps put ``h`` back into the mat-vec."""
        one = min(1.0, fmt.max_value)
        lstm = self._unit_lstm([one] * 4, [one, -one, one, -one], [0] * 4)
        graph = lstm_graph(lstm, window_steps=2, fmt=fmt)
        feats = np.repeat(_raw_domain(fmt), 2, axis=1)
        gates, __ = self._observed(graph, feats, "gate_matvec")
        assert gates.min() == fmt.min_value and gates.max() == fmt.max_value
        if one == 1.0:  # the sweep is total: no raw value is skipped
            assert len(np.unique(gates[0, :, 0])) == len(feats)
        assert_kernel_matches_reference(graph, feats, scalar_rows=range(0, len(feats), 37))

    @pytest.mark.parametrize("fmt", [FIX8, FIX16], ids=str)
    def test_gate_preactivation_saturates_both_ways(self, fmt):
        """Weights and bias at the format limits push the accumulator far
        past the range on both sides; the clip comes after the rounding."""
        big = fmt.max_value
        lstm = self._unit_lstm([big, -big, big, -big], [big] * 4, [big, big, fmt.min_value, 0])
        graph = lstm_graph(lstm, window_steps=3, fmt=fmt)
        feats = np.repeat(_raw_domain(fmt), 3, axis=1)
        gates, __ = self._observed(graph, feats, "gate_matvec")
        assert gates.min() == fmt.min_value and gates.max() == fmt.max_value
        assert_kernel_matches_reference(graph, feats, scalar_rows=range(0, len(feats), 37))

    @pytest.mark.parametrize("fmt", [FIX8, Q3_12], ids=str)
    def test_cell_state_reaches_both_limits_and_ties(self, fmt):
        """``i = f = o = 1`` and ``g = +/-1`` move ``c`` one unit per step:
        after nine steps it has run into ``raw_max`` (clipped) and
        ``raw_min`` — the first and last entry of the unrounded
        ``tanh_pw(c)`` table — and ``h = rt(o * tanh_pw(c))`` sits on its
        own limits, +/-1.0 (``|o * tanh_pw(c)| <= 1``: ``h`` cannot reach
        ``raw_min`` / ``raw_max`` in any format).  ``i = sigmoid_pw(0) =
        1/2`` times an odd ``g_raw`` makes ``i * g`` an exact tie of
        either sign."""
        big = fmt.max_value
        ramp = self._unit_lstm([0, 0, big, 0], [0] * 4, [big, big, 0, big])
        graph = lstm_graph(ramp, window_steps=9, fmt=fmt)
        feats = np.repeat(np.array([[fmt.max_value], [fmt.min_value], [0.0]]), 9, axis=1)
        __, state = self._observed(graph, feats, "cell_update")
        assert state["c"][0, 0] == fmt.max_value and state["c"][1, 0] == fmt.min_value
        assert state["h"][0, 0] == 1.0 and state["h"][1, 0] == -1.0
        assert_kernel_matches_reference(graph, feats)

        ties = self._unit_lstm([0, 0, 1.0, 0], [0] * 4, [0, 0, 0, big])
        graph = lstm_graph(ties, window_steps=1, fmt=fmt)
        feats = _raw_domain(fmt)
        gates, state = self._observed(graph, feats, "gate_matvec")
        g_raw = fmt.quantize(tanh_piecewise(gates[0, :, 2])).astype(int)
        odd = g_raw % 2 == 1  # c = rt(g / 2): a tie, resolved to even
        assert (odd & (g_raw > 0)).any() and (odd & (g_raw < 0)).any()
        assert np.all(state["c"][odd, 0] * fmt.scale % 2 == 0)
        assert_kernel_matches_reference(graph, feats, scalar_rows=range(0, len(feats), 37))


# ----------------------------------------------------------------------
# Epilogue contract
# ----------------------------------------------------------------------
def _counting_temporal_graph(iterations=5):
    calls = {"body": 0, "epilogue": 0}
    g = DataflowGraph("epi", temporal_iterations=iterations)
    inp = g.add("input", name="x", width=2)

    def body(x):
        calls["body"] += 1
        return x + 1.0

    def epilogue(x):
        calls["epilogue"] += 1
        return 2.0 * x

    b = g.add("map", preds=[inp], name="body", width=2, chain_ops=1,
              fn=body)
    e = g.add("map", preds=[b], name="epi", width=2, chain_ops=1,
              fn=epilogue, epilogue=True)
    g.add("output", preds=[e], name="y", width=2, epilogue=True)
    return g, calls


class TestEpilogueSemantics:
    def test_scalar_epilogue_runs_once(self):
        """Regression: epilogue fns used to run on *every* iteration."""
        g, calls = _counting_temporal_graph(iterations=5)
        out = g.execute(np.zeros(2))
        assert calls == {"body": 5, "epilogue": 1}
        assert np.array_equal(out, np.full(2, 2.0))  # 2 * (0 + 1), once

    def test_batch_epilogue_runs_once(self):
        g, calls = _counting_temporal_graph(iterations=5)
        out = g.execute_batch(np.zeros((3, 2)))
        assert calls == {"body": 5, "epilogue": 1}
        assert np.array_equal(out, np.full((3, 2), 2.0))

    def test_lstm_head_fn_call_counts(self):
        """The LSTM action head (epilogue) fires once per execute; the
        recurrent cell fires once per history element.  This is the
        interpreter's contract, so the batched half attaches an observer
        (without one the compiled kernel answers and calls no node)."""
        seqs, __ = generate_congestion_traces(4, seed=1)
        lstm = indigo_lstm(input_size=seqs.shape[-1], n_actions=5, seed=0)
        graph = lstm_graph(lstm, window_steps=seqs.shape[1])
        counts = {}
        for node in graph.nodes.values():
            if node.name in ("cell_update", "action_head"):
                counts[node.name] = 0

                def wrap(fn, key):
                    def counted(*args, **kwargs):
                        counts[key] += 1
                        return fn(*args, **kwargs)

                    counted.wants_state = getattr(fn, "wants_state", False)
                    return counted

                node.fn = wrap(node.fn, node.name)
        graph.execute(seqs[0].reshape(-1))
        assert counts["cell_update"] == graph.temporal_iterations
        assert counts["action_head"] == 1
        counts["cell_update"] = counts["action_head"] = 0
        graph.execute_batch(seqs.reshape(len(seqs), -1), observer=_noop)
        assert counts["cell_update"] == graph.temporal_iterations
        assert counts["action_head"] == 1

    def test_epilogue_feeding_body_rejected_at_build_time(self):
        g = DataflowGraph("bad", temporal_iterations=3)
        inp = g.add("input", name="x", width=1)
        e = g.add("map", preds=[inp], name="epi", width=1, chain_ops=1,
                  fn=lambda x: x, epilogue=True)
        with pytest.raises(ValueError, match="feeds"):
            g.add("output", preds=[e], name="y", width=1)  # output NOT epilogue


# ----------------------------------------------------------------------
# Read-only input contract
# ----------------------------------------------------------------------
class TestReadOnlyInputs:
    def test_scalar_input_view_is_read_only(self):
        seen = {}

        def probe(x):
            seen["writeable"] = x.flags.writeable
            return x

        g = DataflowGraph("ro")
        inp = g.add("input", name="x", width=2)
        n = g.add("map", preds=[inp], name="probe", width=2, chain_ops=1, fn=probe)
        g.add("output", preds=[n], name="y", width=2)
        g.execute(np.ones(2))
        assert seen["writeable"] is False

    def test_batch_input_view_is_read_only(self):
        seen = {}

        def probe(x):
            seen["writeable"] = x.flags.writeable
            return x

        g = DataflowGraph("ro")
        inp = g.add("input", name="x", width=2)
        n = g.add("map", preds=[inp], name="probe", width=2, chain_ops=1,
                  fn=probe)
        g.add("output", preds=[n], name="y", width=2)
        g.execute_batch(np.ones((3, 2)))
        assert seen["writeable"] is False

    def test_mutating_fn_raises_and_caller_array_intact(self):
        def vandal(x):
            x[:] = 0.0  # a buggy node fn trying to mutate shared input
            return x

        g = DataflowGraph("mut")
        inp = g.add("input", name="x", width=2)
        n = g.add("map", preds=[inp], name="vandal", width=2, chain_ops=1,
                  fn=vandal)
        g.add("output", preds=[n], name="y", width=2)
        features = np.array([3.0, 4.0])
        with pytest.raises(ValueError):
            g.execute(features)
        batch = np.array([[3.0, 4.0]])
        with pytest.raises(ValueError):
            g.execute_batch(batch)
        # The caller's arrays were never touched (execute copies them).
        assert np.array_equal(features, [3.0, 4.0])
        assert np.array_equal(batch, [[3.0, 4.0]])

    def test_sibling_consumers_see_pristine_features(self):
        """Two input consumers observe the same, unmodified features."""
        seen = []

        def record(x):
            seen.append(x.copy())
            return x

        g = DataflowGraph("siblings")
        inp = g.add("input", name="x", width=2)
        a = g.add("map", preds=[inp], name="a", width=2, chain_ops=1,
                  fn=record)
        b = g.add("map", preds=[inp], name="b", width=2, chain_ops=1,
                  fn=record)
        merged = g.add("gather", preds=[a, b], name="g", width=4)
        g.add("output", preds=[merged], name="y", width=4)
        out = g.execute(np.array([1.0, 2.0]))
        assert np.array_equal(seen[0], seen[1])
        assert np.array_equal(out, [1.0, 2.0, 1.0, 2.0])


# ----------------------------------------------------------------------
# Reduce ops accept (B, width) blocks
# ----------------------------------------------------------------------
class TestOpsBatchSemantics:
    def test_reduce_ops_contract_last_axis(self):
        v = np.array([[1.0, 5.0, 2.0], [4.0, 0.0, 3.0]])
        assert REDUCE_OPS["sum"].fn(v).shape == (2,)
        assert np.array_equal(REDUCE_OPS["max"].fn(v), [5.0, 4.0])
        assert np.array_equal(REDUCE_OPS["argmax"].fn(v), [1, 0])
        assert np.array_equal(REDUCE_OPS["argmin"].fn(v), [0, 1])

    def test_reduce_batched_keeps_lane_axis(self):
        v = np.array([[1.0, 5.0, 2.0], [4.0, 0.0, 3.0]])
        out = REDUCE_OPS["min"].batched(v)
        assert out.shape == (2, 1)
        assert np.array_equal(out, [[1.0], [0.0]])
        # Rows of a batched reduce match the row-at-a-time reduce.
        for name, op in REDUCE_OPS.items():
            rows = np.stack([np.asarray(op.fn(row)) for row in v])
            assert np.array_equal(np.asarray(op.fn(v)), rows), name


# ----------------------------------------------------------------------
# The shipped kernels stay on the calling thread
# ----------------------------------------------------------------------
TASKS = Path("/proc/self/task")


def _native_thread_ticks() -> int:
    """CPU ticks (user + system) of this process's threads that Python did
    not start: OpenBLAS's helper threads (they share the process's name, so
    ``comm`` cannot pick them out), busy when a gemm is big enough to wake
    them (or its weight operand is in Fortran order).  Python threads —
    the caller, and any pool or service thread an earlier test left
    running — are not counted."""
    python_threads, ticks = {t.native_id for t in threading.enumerate()}, 0
    for stat in TASKS.glob("*/stat"):
        if int(stat.parent.name) not in python_threads:
            try:
                fields = stat.read_text().rpartition(")")[2].split()
            except FileNotFoundError:  # the thread exited meanwhile
                continue
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task")
class TestKernelsStayOnTheCallingThread:
    """A kernel call at its largest shipped block pass — the anomaly DNN at
    one whole span, 8,192 rows, and the Indigo LSTM at 512 — leaves no
    CPU time on any other thread: no BLAS call of it is threaded."""

    @staticmethod
    def _assert_serial(graph, feats, calls=10):
        graph.execute_batch(feats)  # warm: first-call allocations
        before = _native_thread_ticks()
        for __ in range(calls):
            graph.execute_batch(feats)
        assert _native_thread_ticks() == before

    def test_dnn_at_one_span(self, quantized_dnn, train_test_split):
        from repro.pisa.pipeline import DEFAULT_TRACE_CHUNK

        train, __ = train_test_split
        feats = np.resize(dnn_feature_matrix(train), (DEFAULT_TRACE_CHUNK, 6))
        graph = dnn_graph(quantized_dnn, exact_activations=True)
        assert graph.kernel is not None
        self._assert_serial(graph, feats)

    def test_lstm_at_512_rows(self):
        seqs, __ = generate_congestion_traces(512, seed=4)
        graph = lstm_graph(indigo_lstm(seed=0), window_steps=seqs.shape[1])
        assert graph.kernel is not None and len(seqs) == 512
        self._assert_serial(graph, seqs.reshape(len(seqs), -1))


# ----------------------------------------------------------------------
# The compiled kernels run in working memory they own
# ----------------------------------------------------------------------
def _dnn_rows(quantized_dnn, train_test_split, rows):
    train, __ = train_test_split
    return np.resize(dnn_feature_matrix(train), (rows, quantized_dnn.layers[0].w_raw.shape[1]))


class TestKernelWorkspace:
    """The kernels' buffers are allocated at lowering, so a returned array
    must never be a view of them: a result (and an LSTM's ``state``) kept
    from one call keeps its values through the next, at the kernel and at
    the block; a call longer than the buffers runs in pieces; and a second
    call into a busy kernel is refused, not run on shared buffers."""

    @staticmethod
    def _assert_kept(call, first, second):
        kept = call(first)
        copies = [np.copy(value) for value in kept]
        call(second)
        for value, copy in zip(kept, copies):
            assert _same(value, copy)

    @pytest.mark.parametrize("rows", [64, frontend._DNN_ROWS])
    def test_dnn_result_survives_the_next_call(self, quantized_dnn, train_test_split, rows):
        from repro.hw import MapReduceBlock

        feats = _dnn_rows(quantized_dnn, train_test_split, rows)
        graph = dnn_graph(quantized_dnn, exact_activations=True)
        assert graph.kernel is not None
        other = feats[::-1].copy()
        self._assert_kept(lambda x: [graph.execute_batch(x)], feats, other)
        block = MapReduceBlock(graph)
        self._assert_kept(lambda x: [block.run_batch(x).values], feats, other)

    def test_lstm_result_and_state_survive_the_next_call(self):
        from repro.hw import MapReduceBlock

        graph = lstm_graph(indigo_lstm(seed=0), window_steps=8)
        rng = np.random.default_rng(5)
        first, second = (_lstm_rows(rng, 300, 40, FIX8) for __ in range(2))

        def call(x):
            state = {}
            return [graph.execute_batch(x, state=state), state["h"], state["c"]]

        self._assert_kept(call, first, second)
        block = MapReduceBlock(graph)
        self._assert_kept(lambda x: [block.run_batch(x).values], first, second)

    def test_calls_longer_than_the_buffers_run_in_pieces(self, quantized_dnn, train_test_split):
        rows = 2 * frontend._DNN_ROWS + 5
        feats = _dnn_rows(quantized_dnn, train_test_split, rows)
        feats[frontend._DNN_ROWS] = np.nan  # the first row of the second piece
        graph = dnn_graph(quantized_dnn, exact_activations=True)
        assert_kernel_matches_reference(
            graph, feats, scalar_rows=_boundary_rows(rows, frontend._DNN_ROWS)
        )
        lstm_rows = 2 * frontend._LSTM_ROWS + 5
        graph = lstm_graph(indigo_lstm(seed=0), window_steps=8)
        feats = _lstm_rows(np.random.default_rng(6), lstm_rows, 40, FIX8)
        assert_kernel_matches_reference(
            graph, feats, scalar_rows=_boundary_rows(lstm_rows, frontend._LSTM_ROWS)
        )

    def test_a_reentrant_call_is_refused(self, quantized_dnn, train_test_split):
        """A MAC that calls back into its own kernel finds it busy; the
        outer call then completes untouched, and so do later calls."""
        feats = _dnn_rows(quantized_dnn, train_test_split, 64)
        expected = dnn_graph(quantized_dnn, exact_activations=True).execute_batch(feats)
        layers = [copy.copy(layer) for layer in quantized_dnn.layers]
        mac, calls, refused = layers[1]._mac_into, [], []

        def reentrant(*args):
            if not calls:  # once, from inside the outer call
                calls.append(args)
                try:
                    graph.execute_batch(feats)
                except RuntimeError as exc:
                    refused.append(str(exc))
            return mac(*args)

        layers[1]._mac_into = reentrant  # the lowering binds the instance's
        graph = dnn_graph(QuantizedModel(layers), exact_activations=True)
        assert _same(graph.execute_batch(feats), expected)
        assert len(refused) == 1 and "one call at a time" in refused[0]
        assert _same(graph.execute_batch(feats), expected)

    def test_fresh_process_faults_no_pages_per_call(self):
        """In a process that has made no large allocation (glibc's trim
        threshold still at its default), an 8,192-row anomaly-DNN call
        takes at most 10 minor faults: its buffers were written at
        lowering.  Temporaries of the same size fault ~350 a call."""
        code = (
            "import resource, numpy as np\n"
            "from repro.fixpoint import quantize_model\n"
            "from repro.mapreduce import dnn_graph\n"
            "from repro.ml import anomaly_detection_dnn\n"
            "rng = np.random.default_rng(0)\n"
            "model = quantize_model(anomaly_detection_dnn(seed=0), rng.normal(size=(256, 6)))\n"
            "graph = dnn_graph(model, exact_activations=True)\n"
            "feats = rng.normal(size=(8192, 6))\n"
            "graph.execute_batch(feats)\n"
            "faults = []\n"
            "for _ in range(5):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    graph.execute_batch(feats)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(max(faults))\n"
        )
        src = Path(frontend.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert int(out.stdout) <= 10, out.stdout


class TestFix16WideAccumulator:
    """A fix16 layer whose MAC cannot be exact in float64 accumulates in
    int64 (``QuantizedLinear.mac_raw``'s wide-integer path), in the
    kernel's buffers too.  Inputs put its outputs on both raw limits, one
    unit past them and on rounding ties of both signs; the compiled
    kernel and the reference ``dot`` node must both equal a Python-int
    oracle that shifts, rounds half away from zero and saturates."""

    IN = FixedPointFormat(16, 1, "fix16")     # x_raw / 2
    ACT = FixedPointFormat(16, 15, "fix16")  # raw / 2**15
    FAN_IN = 256

    def _layer(self):
        """Row 0 sums the inputs and row 1 negates the sum, both shifted
        right by one (``w_frac + in.frac - act.frac = 15 + 1 - 15``); row 2
        scales input 0 by ``-2**15`` and shifts left by 14, which takes
        the MAC's peak past 2^52; row 3 is row 0 with a bias."""
        w = np.zeros((4, self.FAN_IN), dtype=np.int64)
        w[0], w[1], w[2, 0], w[3] = 1, -1, -(1 << 15), 1
        layer = _layer(w, [15, 15, 0, 15], [0, 0, 0, -3], "linear", self.IN, self.ACT)
        assert layer._w.dtype == np.int64  # the integer path
        return layer

    def _oracle(self, layer, x_raw):
        """Python ints: MAC, rounding shift, bias, saturation."""
        lo, hi = self.ACT.raw_min, self.ACT.raw_max
        out = []
        for row in x_raw.tolist():
            values = []
            for w, shift, b in zip(layer.w_raw.tolist(), layer._shifts[:, 0].tolist(),
                                   layer.bias.raw.tolist()):
                acc = sum(wi * xi for wi, xi in zip(w, row))
                if shift > 0:
                    mag = (abs(acc) + (1 << (shift - 1))) >> shift
                    acc = mag if acc >= 0 else -mag
                else:
                    acc <<= -shift
                values.append(min(max(acc + b, lo), hi))
            out.append(values)
        return np.array(out)

    def _inputs(self):
        """Rows whose input sum is ``s``: the sum's half lands on and one
        past each raw limit, on ties of both signs near 0 and at the
        limits; and every input at its raw limit."""
        lo, hi = self.IN.raw_min, self.IN.raw_max
        sums = [0, 1, -1, 3, -3, 5, -5, 65533, 65534, 65535, 65536, 65539,
                -65533, -65535, -65536, -65537, -65541]
        rows = []
        for s in sums:
            row = np.zeros(self.FAN_IN, dtype=np.int64)
            row[0] = s % 3 - 1  # unit 2: -1, 0 or +1 times -2**15 << 14
            left = s - row[0]
            for k in range(1, 4):  # the rest of the sum, in range
                row[k] = min(max(left, lo), hi)
                left -= row[k]
            rows.append(row)
        rows += [np.full(self.FAN_IN, lo), np.full(self.FAN_IN, hi)]
        return np.array(rows)

    def test_kernel_and_dot_node_equal_the_saturated_oracle(self):
        layer = self._layer()
        x_raw = self._inputs()
        oracle = self._oracle(layer, x_raw)
        assert np.array_equal(np.clip(layer.mac_raw(x_raw.T), -32768, 32767).T, oracle)
        # Both limits are reached exactly and passed, in rows 0, 1 and 3.
        for unit in (0, 1, 3):
            assert {self.ACT.raw_min, self.ACT.raw_max} <= set(oracle[:, unit].tolist())
        graph = dnn_graph(QuantizedModel([layer]))
        feats = self.IN.dequantize(x_raw)
        fused, __ = assert_kernel_matches_reference(graph, feats)
        assert np.array_equal(fused, self.ACT.dequantize(oracle))
