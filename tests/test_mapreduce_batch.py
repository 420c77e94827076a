"""Batched dataflow execution: bit-identity, epilogue, and input contracts.

The batched interpreter must be a pure widening of the scalar one:
``execute_batch(stack(xs)) == stack(execute(x) for x in xs)`` bit-for-bit,
for every app graph and fixed-point format.  Epilogue nodes run exactly
once (after the last temporal iteration), and input features reach node
callables as read-only views.
"""

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
    FixedPointFormat,
    FixTensor,
    QuantizedLinear,
    QuantizedModel,
    quantize_model,
)
from repro.mapreduce import (
    activation_graph,
    conv1d_graph,
    dnn_graph,
    inner_product_graph,
    kmeans_graph,
    lstm_graph,
    svm_graph,
)
from repro.mapreduce.ir import DataflowGraph
from repro.mapreduce.ops import MAP_OPS, REDUCE_OPS
from repro.ml import KMeans, indigo_lstm


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
            (conv1d_graph(n_outputs=8, kernel=2, unroll=8), 9),
            (conv1d_graph(n_outputs=8, kernel=2, unroll=2), 9),
        ]
        for graph, dim in cases:
            feats = rng.uniform(-2, 2, size=(48, dim))
            assert_batch_matches_scalar(graph, feats)

    def test_batch_rejects_non_2d(self):
        graph = inner_product_graph(16)
        with pytest.raises(ValueError, match="expects"):
            graph.execute_batch(np.ones(16))

    def test_fallback_loops_scalar_fn(self):
        """Nodes lowered without a batch_fn still execute (row loop)."""
        g = DataflowGraph("fallback")
        inp = g.add("input", name="x", width=3)
        doubled = g.add(
            "map", preds=[inp], name="double", width=3, chain_ops=1,
            fn=lambda x: 2.0 * x,
        )
        g.add("output", preds=[doubled], name="y", width=3)
        feats = np.arange(12, dtype=np.float64).reshape(4, 3)
        assert np.array_equal(g.execute_batch(feats), 2.0 * feats)

    def test_reduce_node_without_fn_uses_named_op(self):
        """Reduce nodes lowered without fn fall back to REDUCE_OPS."""
        g = DataflowGraph("opreduce")
        inp = g.add("input", name="x", width=4)
        red = g.add("reduce", preds=[inp], name="maxval", width=4, reduce_op="max")
        g.add("output", preds=[red], name="y", width=1)
        feats = np.array([[1.0, 7.0, 3.0, 2.0], [9.0, 0.0, 4.0, 5.0]])
        assert np.array_equal(g.execute(feats[0]), [7.0])
        assert np.array_equal(g.execute_batch(feats), [[7.0], [9.0]])

    def test_fallback_rejects_stateful_scalar_fn(self):
        g = DataflowGraph("stateful", temporal_iterations=2)
        inp = g.add("input", name="x", width=1)

        def acc(x, state):
            return x

        acc.wants_state = True
        node = g.add("map", preds=[inp], name="acc", width=1, chain_ops=1, fn=acc)
        g.add("output", preds=[node], name="y", width=1)
        with pytest.raises(ValueError, match="batch_fn"):
            g.execute_batch(np.ones((2, 1)))


# ----------------------------------------------------------------------
# The compiled DNN kernel == the node-at-a-time interpreter, bit for bit
# ----------------------------------------------------------------------
def _noop(node, value, iteration):
    """An observer: its presence forces the reference interpreter."""


def _layer(w_raw, w_frac, bias_raw, activation, in_fmt, act_fmt):
    """A hand-built per-channel layer (what ``quantize_model`` emits)."""
    w_raw = np.asarray(w_raw, dtype=np.int64)
    w_fmt = FixedPointFormat(in_fmt.total_bits, 0, in_fmt.name)
    return QuantizedLinear(
        weights=FixTensor.from_raw(w_raw, w_fmt),
        bias=FixTensor.from_raw(np.asarray(bias_raw), act_fmt),
        activation=activation,
        in_fmt=in_fmt,
        act_fmt=act_fmt,
        w_raw=w_raw,
        w_frac=np.asarray(w_frac, dtype=np.int64),
    )


def assert_kernel_matches_reference(graph, feats, scalar_rows=None):
    """Fused ``execute_batch`` == observed interpreter == scalar rows."""
    assert graph.kernel is not None
    before = feats.copy()
    fused = graph.execute_batch(feats)
    assert fused.dtype == np.float64 and fused.ndim == 2
    assert np.array_equal(feats, before, equal_nan=True)  # not mutated
    reference = graph.execute_batch(feats, observer=_noop)
    assert fused.shape == reference.shape
    assert np.array_equal(fused, reference)
    rows = range(len(feats)) if scalar_rows is None else scalar_rows
    for b in rows:
        assert np.array_equal(graph.execute(feats[b]), fused[b])


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
        domain = fmt.dequantize(np.arange(fmt.raw_min, fmt.raw_max + 1))[:, None]
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


def feature_rows(width, fmt):
    """Rows mixing ordinary values, non-finite / huge ones, and the
    half-ulp points where ``in_fmt.quantize`` rounds to even."""
    special = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0])
    half_ulp = st.integers(fmt.raw_min - 2, fmt.raw_max + 2).map(
        lambda k: (k + 0.5) / fmt.scale
    )
    value = st.one_of(
        st.floats(-2 * fmt.max_value - 1, 2 * fmt.max_value + 1), special, half_ulp
    )
    row = st.lists(value, min_size=width, max_size=width)
    return st.lists(row, min_size=0, max_size=6).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), width)
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
        feats = data.draw(feature_rows(first.w_raw.shape[1], first.in_fmt))
        assert_kernel_matches_reference(graph, feats)
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
            width=out.width, chain_ops=1, fn=np.negative, batch_fn=np.negative,
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
              fn=body, batch_fn=body)
    e = g.add("map", preds=[b], name="epi", width=2, chain_ops=1,
              fn=epilogue, batch_fn=epilogue, epilogue=True)
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
        recurrent cell fires once per history element."""
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
                node.batch_fn = wrap(node.batch_fn, node.name)
        graph.execute(seqs[0].reshape(-1))
        assert counts["cell_update"] == graph.temporal_iterations
        assert counts["action_head"] == 1
        counts["cell_update"] = counts["action_head"] = 0
        graph.execute_batch(seqs.reshape(len(seqs), -1))
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
                  fn=probe, batch_fn=probe)
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
                  fn=vandal, batch_fn=vandal)
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
                  fn=record, batch_fn=record)
        b = g.add("map", preds=[inp], name="b", width=2, chain_ops=1,
                  fn=record, batch_fn=record)
        merged = g.add("gather", preds=[a, b], name="g", width=4)
        g.add("output", preds=[merged], name="y", width=4)
        out = g.execute(np.array([1.0, 2.0]))
        assert np.array_equal(seen[0], seen[1])
        assert np.array_equal(out, [1.0, 2.0, 1.0, 2.0])


# ----------------------------------------------------------------------
# Ops accept (B, width) blocks
# ----------------------------------------------------------------------
class TestOpsBatchSemantics:
    def test_map_ops_broadcast_over_batch(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        b = np.ones((2, 3))
        for name, op in MAP_OPS.items():
            out = op.fn(a) if op.arity == 1 else op.fn(a, b)
            assert out.shape == (2, 3), name

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
