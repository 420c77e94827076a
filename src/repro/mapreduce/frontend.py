"""Model frontends: lower trained ML models to dataflow graphs.

Each function builds the :class:`~repro.mapreduce.ir.DataflowGraph` a
Spatial-style compiler would produce for the paper's benchmarks
(Section 5.1.2-5.1.3): innermost loops become SIMD operations within CUs,
outer loops map over parallel CUs, and recurrences become temporal
iterations over the same hardware.

Every node's ``fn`` is written batch-first, over ``(B, width)`` arrays, and
one packet is a one-row batch, so ``DataflowGraph.execute`` and
``execute_batch`` run the very same numpy expressions.  Reductions
deliberately avoid BLAS matmuls (``sum(a * w, axis=-1)`` instead of
``a @ w``) so results do not drift with batch size.  The one exception
is a sum of integer-valued float64 terms that stays below 2^53: every
partial sum is then exact, so the result does not depend on the order
BLAS adds in, nor on how many threads it splits the sum over.
:meth:`QuantizedLinear.mac_raw <repro.fixpoint.quantize.QuantizedLinear.mac_raw>`
proves that bound per layer before it uses a float matmul on raw values,
and :func:`_lstm_kernel` for the mat-vecs of the compiled recurrence — which
it also keeps small enough (:data:`_SERIAL_GEMM_WORK`) to stay off BLAS threads.
"""

from __future__ import annotations

import numpy as np

from ..fixpoint import FIX8, FixedPointFormat, QuantizedModel
from ..ml.activations import ACTIVATIONS, sigmoid_piecewise, tanh_piecewise
from .ir import DataflowGraph

__all__ = [
    "HW_ACTIVATION_FOR",
    "dnn_graph",
    "svm_graph",
    "kmeans_graph",
    "lstm_graph",
    "inner_product_graph",
    "activation_graph",
    "conv1d_graph",
]

def _verified(graph: DataflowGraph) -> DataflowGraph:
    """Gate every lowering on the structural verifier before returning it.

    Runs :func:`repro.analysis.verify_graph` in structural mode (no
    execution probe — that belongs to the CLI/CI gate; training loops
    re-lower after every weight update, so this must stay O(nodes)) and
    raises on any error-severity finding.  Budgets are
    :func:`~repro.compiler.compile_graph`'s.  Lazy import:
    ``repro.analysis`` imports this module for its shipped-graph catalog.
    """
    from ..analysis import Severity, verify_graph

    errors = [
        d for d in verify_graph(graph, probe=False)
        if d.severity >= Severity.ERROR
    ]
    if errors:
        raise ValueError(
            f"lowering produced an invalid graph:\n"
            + "\n".join(d.format() for d in errors)
        )
    return graph


#: Which line-rate implementation serves each model-level activation.
#: ReLUs map exactly; smooth activations use the piecewise variants, the
#: cheapest implementation with acceptable error (Table 6 discussion).
HW_ACTIVATION_FOR = {
    "relu": "relu",
    "leaky_relu": "leaky_relu",
    "sigmoid": "sigmoid_pw",
    "tanh": "tanh_pw",
}


#: Activation spec names with a registered range transfer of the same
#: name in :data:`repro.analysis.ranges.TRANSFERS`.
_ACT_TRANSFER_NAMES = frozenset({
    "relu", "leaky_relu", "sigmoid", "tanh",
    "sigmoid_pw", "tanh_pw", "sigmoid_exp", "tanh_exp", "act_lut",
})


def _hw_activation_fn(model_act: str, fmt: FixedPointFormat):
    """Fixed-point hardware activation: approximate fn + output roundtrip."""
    spec = ACTIVATIONS[HW_ACTIVATION_FOR[model_act]]

    def apply(z: np.ndarray) -> np.ndarray:
        return fmt.roundtrip(spec.fn(z))

    return apply, spec


#: Activations that map each value independently of its neighbours, so a
#: ``dequantize -> activation -> next layer's quantize`` hop is a function
#: of one raw value and can be tabulated (softmax, row-wise, cannot).
_ELEMENTWISE_ACTIVATIONS = frozenset(
    {"linear", "relu", "leaky_relu", "sigmoid", "tanh"}
)

#: Widest format whose whole raw domain is tabulated (65 536 entries).
_MAX_TABLE_BITS = 16


def _raw_domain_table(fmt: FixedPointFormat, *hop) -> np.ndarray:
    """The reference callables ``hop`` (``None`` entries skipped) composed
    over every value of ``fmt``, indexed ``raw - raw_min``: a lookup is the
    float64 the interpreter would compute for that raw value."""
    values = fmt.dequantize(np.arange(fmt.raw_min, fmt.raw_max + 1))[:, None]
    # exp() may overflow at the far ends of a coarse format: values the
    # model never produces must not warn at lowering time.
    with np.errstate(over="ignore"):
        for fn in hop:
            if fn is not None:
                values = fn(values)
    return np.asarray(values, dtype=np.float64).ravel()


def _dnn_kernel(layers, activations):
    """Compile a quantized layer stack into one batch function, or ``None``.

    The kernel runs feature-major, like the block's SIMD lanes: a layer's
    values are ``(units, B)``, one contiguous row per unit.  It quantizes
    the features once at the PHV boundary, straight to float raw values
    (``in_fmt.quantize_float``, no int8 round trip), and then stays on raw
    fixed-point values: per layer the shared
    :meth:`~repro.fixpoint.quantize.QuantizedLinear.mac_raw` (``W @ X``,
    unsaturated table indices), then one ``take(..., mode="clip")`` in a
    table over the layer's whole ``act_fmt`` raw domain — the clipped
    index is the saturated value's, so the lookup is the saturation.  The
    table is filled here by running the reference hop — ``dequantize``,
    the layer's ``activations`` entry (the very callable its ``map`` node
    runs; ``None`` for a linear layer), the next layer's
    ``in_fmt.quantize`` — on every representable value; the last table
    holds the float scores.  Returns ``None`` (the interpreter runs) when
    a hop is not element-wise or a domain is too large to tabulate.  The
    kernel's ``tables`` lists ``(fmt, table)`` per lookup: a clipped lookup
    cannot tell a table short of its domain, so the analyser's probe
    checks their sizes.
    """
    if any(
        layer.activation not in _ELEMENTWISE_ACTIVATIONS
        or layer.act_fmt.total_bits > _MAX_TABLE_BITS
        for layer in layers
    ):
        return None
    requantize = [layer.in_fmt.quantize for layer in layers[1:]] + [None]
    steps = [
        (layer.mac_raw, layer.act_fmt.raw_min, _raw_domain_table(layer.act_fmt, act, quantize))
        for layer, act, quantize in zip(layers, activations, requantize)
    ]
    quantize_input = layers[0].in_fmt.quantize_float

    def kernel(features: np.ndarray, state: dict) -> np.ndarray:
        raw = quantize_input(features.T)
        for mac_raw, raw_min, table in steps:
            raw = table.take(mac_raw(raw, raw_min), mode="clip")
        return raw.T

    kernel.tables = [(layer.act_fmt, table) for layer, (__, __, table) in zip(layers, steps)]
    return kernel


# ----------------------------------------------------------------------
# DNN (the anomaly-detection running example and the IoT classifiers)
# ----------------------------------------------------------------------
def dnn_graph(
    qmodel: QuantizedModel, name: str = "dnn", exact_activations: bool = False
) -> DataflowGraph:
    """Lower a quantized DNN to a dataflow graph.

    With ``exact_activations=True`` the graph's map nodes reuse the
    quantized model's exact activations, making graph execution bit-exact
    with :class:`~repro.fixpoint.quantize.QuantizedModel` — the equivalence
    the integration tests check.  The default uses the line-rate hardware
    approximations (piecewise sigmoid/tanh).

    Softmax heads are lowered to an argmax reduce: the switch only needs the
    class decision, and argmax over logits equals argmax over softmax.

    The returned graph carries a compiled ``kernel`` (see
    :func:`_dnn_kernel`) that ``execute_batch`` runs when no observer is
    attached; the nodes remain the reference semantics.
    """
    graph = DataflowGraph(name=name)
    activations = []  # per layer: the map node's callable, None if linear
    in_fmt0 = qmodel.layers[0].in_fmt
    cursor = graph.add(
        "input",
        name="features",
        width=qmodel.layers[0].weights.shape[1],
        # Precondition: preprocessing MATs format features as fixed point
        # before the fabric sees them (the PHV boundary in linear()).
        value_range=(in_fmt0.min_value, in_fmt0.max_value),
    )
    for i, layer in enumerate(qmodel.layers):
        out_units, in_units = layer.weights.shape
        # Per-channel dequantized weights: row i stores w_raw[i] * 2^-w_frac[i].
        w_real = layer.w_raw.astype(np.float64) * (
            2.0 ** -layer.w_frac.astype(np.float64)
        )[:, None]
        b_real = layer.bias.to_float()
        bank = graph.add(
            "const",
            name=f"w{i}",
            weight_values=layer.weights.size + layer.bias.size,
            payload={"values": np.concatenate([w_real.ravel(), b_real.ravel()])},
        )
        dot = graph.add(
            "dot",
            preds=[cursor, bank],
            name=f"dot{i}",
            parallel=out_units,
            width=in_units,
            chain_ops=1,
            reduce_op="sum",
            fn=layer.linear,
            transfer="dot",
            payload={
                "weights": w_real,
                "bias": b_real,
                "in_fmt": layer.in_fmt,
                "fmt": layer.act_fmt,
                "requantize": "shift",
            },
            # TFLite-style calibration clips pre-activation outliers into
            # act_fmt by design; saturation here is the quantization
            # scheme, not a bug.
            waivers=("an-may-saturate",),
        )
        cursor = dot
        if out_units > 1:
            cursor = graph.add(
                "gather", preds=[cursor], name=f"gather{i}", width=out_units
            )
        if layer.activation == "linear":
            activations.append(None)
            continue
        if exact_activations or layer.activation == "relu":
            act_fn = layer.activate
            spec = ACTIVATIONS[HW_ACTIVATION_FOR.get(layer.activation, "relu")]
            # The exact model activations are registered transfers too.
            act_transfer = (
                layer.activation
                if layer.activation in ("relu", "leaky_relu", "sigmoid", "tanh")
                else None
            )
        else:
            act_fn, spec = _hw_activation_fn(layer.activation, layer.act_fmt)
            act_transfer = spec.name
        activations.append(act_fn)
        cursor = graph.add(
            "map",
            preds=[cursor],
            name=f"{spec.name}{i}",
            width=out_units,
            chain_ops=spec.chain_ops,
            fn=act_fn,
            weight_values=spec.lut_tables * 1024,
            transfer=act_transfer,
            payload={"fmt": layer.act_fmt},
        )
    # Not cursor.width: a bare one-unit dot's width is its fan-in.
    graph.add("output", preds=[cursor], name="score", width=out_units)
    _verified(graph)
    graph.kernel = _dnn_kernel(qmodel.layers, activations)
    return graph


def _sq_dist_fn(bank: np.ndarray, in_fmt: FixedPointFormat, acc_fmt: FixedPointFormat):
    """Batched squared distances to each row of a resident ``bank``.

    Shared by the SVM (support vectors) and KMeans (centroids) lowerings —
    the quantize/clip/square/reduce sequence is written once for both.
    """

    def sq_dist(x: np.ndarray) -> np.ndarray:
        xq = in_fmt.roundtrip(np.clip(x, in_fmt.min_value, in_fmt.max_value))
        return acc_fmt.roundtrip(
            np.sum((xq[:, None, :] - bank[None, :, :]) ** 2, axis=-1)
        )

    return sq_dist


# ----------------------------------------------------------------------
# RBF-kernel SVM (anomaly detection)
# ----------------------------------------------------------------------
def svm_graph(svm, fmt: FixedPointFormat = FIX8, name: str = "svm") -> DataflowGraph:
    """Lower a trained :class:`~repro.ml.svm.RBFKernelSVM`.

    Structure: per-SV squared distance (map sub/square + tree reduce),
    scale by -gamma, exponential via an MU lookup table, weighted sum over
    SV coefficients, and a bias add.  All values are roundtripped through
    the datapath format.
    """
    if svm.support_vectors is None:
        raise ValueError("SVM must be fitted before lowering")
    from ..fixpoint import format_for_range

    in_fmt = format_for_range(svm.support_vectors, fmt.total_bits)
    sv = in_fmt.roundtrip(svm.support_vectors)
    alphas = fmt.roundtrip(svm.alphas)
    gamma = svm.gamma
    bias = float(fmt.roundtrip(svm.bias))
    n_sv, dim = sv.shape
    # Squared distances live in the CU's wide accumulator (16-bit view).
    acc_fmt = format_for_range(np.array([(2 * np.abs(sv).max()) ** 2 * dim]), 16)

    sq_dist = _sq_dist_fn(sv, in_fmt, acc_fmt)

    def scale_gamma(d: np.ndarray) -> np.ndarray:
        return np.clip(-gamma * d, -8.0, 0.0)

    def exp_lut(z: np.ndarray) -> np.ndarray:
        return fmt.roundtrip(np.exp(z))

    def weighted_sum(k: np.ndarray) -> np.ndarray:
        return fmt.roundtrip(np.sum(k * alphas, axis=-1, keepdims=True))

    def bias_threshold(s: np.ndarray) -> np.ndarray:
        return np.atleast_1d(s + bias)

    graph = DataflowGraph(name=name)
    features = graph.add(
        "input",
        name="features",
        width=dim,
        value_range=(in_fmt.min_value, in_fmt.max_value),
    )
    bank = graph.add(
        "const",
        name="sv_bank",
        weight_values=sv.size + alphas.size,
        payload={"values": np.concatenate([sv.ravel(), alphas.ravel()])},
    )
    dist = graph.add(
        "mapreduce",
        preds=[features, bank],
        name="sq_dist",
        parallel=n_sv,
        width=dim,
        chain_ops=2,  # subtract, square
        reduce_op="sum",
        fn=sq_dist,
        transfer="sq_dist",
        payload={"bank": sv, "in_fmt": in_fmt, "fmt": acc_fmt},
        # acc_fmt is calibrated to the max SV-to-SV distance; a feature
        # vector at the far corner of in_fmt's range can exceed it, and
        # a clipped distance only pushes the kernel further toward 0 —
        # the decision is unaffected for exactly the points that are
        # already far from every support vector.
        waivers=("an-may-saturate",),
    )
    gathered = graph.add("gather", preds=[dist], name="gather_dist", width=n_sv)
    scaled = graph.add(
        "map",
        preds=[gathered],
        name="scale_gamma",
        width=n_sv,
        chain_ops=1,
        fn=scale_gamma,
        transfer="affine",
        payload={"scale": -gamma, "clip": (-8.0, 0.0)},
    )
    kernel = graph.add(
        "lut",
        preds=[scaled],
        name="exp_lut",
        width=n_sv,
        weight_values=1024,
        fn=exp_lut,
        transfer="lut",
        payload={
            "domain": (-8.0, 0.0),
            "range": (0.0, 1.0),  # exp over [-8, 0]
            "fmt": fmt,
        },
    )
    score = graph.add(
        "dot",
        preds=[kernel],
        name="weighted_sum",
        parallel=1,
        width=n_sv,
        chain_ops=1,
        reduce_op="sum",
        fn=weighted_sum,
        transfer="dot",
        payload={"weights": alphas.reshape(1, -1), "fmt": fmt},
        # Sum(alpha_i) can exceed the datapath range in the worst case
        # (every kernel value 1 at once); clipping the margin preserves
        # its sign, which is all the decision threshold reads.
        waivers=("an-may-saturate",),
    )
    decision = graph.add(
        "map",
        preds=[score],
        name="bias_threshold",
        width=1,
        chain_ops=2,  # add bias, compare
        fn=bias_threshold,
        transfer="affine",
        payload={"offset": bias},
    )
    graph.add("output", preds=[decision], name="score", width=1)
    return _verified(graph)


# ----------------------------------------------------------------------
# KMeans (IoT traffic classification)
# ----------------------------------------------------------------------
def kmeans_graph(kmeans, fmt: FixedPointFormat = FIX8, name: str = "kmeans") -> DataflowGraph:
    """Lower a fitted :class:`~repro.ml.kmeans.KMeans` to nearest-centroid.

    Inputs and centroids are quantized in a format calibrated to the
    centroid range; squared distances stay in the CU's wide accumulator
    (16-bit view) so the arg-min reduce sees unsaturated values.
    """
    if kmeans.centroids is None:
        raise ValueError("KMeans must be fitted before lowering")
    from ..fixpoint import format_for_range

    in_fmt = format_for_range(kmeans.centroids, fmt.total_bits)
    centroids = in_fmt.roundtrip(kmeans.centroids)
    k, dim = centroids.shape
    max_dist = float(((2 * np.abs(centroids).max()) ** 2) * dim)
    acc_fmt = format_for_range(np.array([max_dist]), 16)

    sq_dist = _sq_dist_fn(centroids, in_fmt, acc_fmt)

    def argmin(d: np.ndarray) -> np.ndarray:
        return np.argmin(d, axis=-1, keepdims=True)

    graph = DataflowGraph(name=name)
    features = graph.add(
        "input",
        name="features",
        width=dim,
        value_range=(in_fmt.min_value, in_fmt.max_value),
    )
    bank = graph.add(
        "const",
        name="centroids",
        weight_values=centroids.size,
        payload={"values": centroids.ravel()},
    )
    dist = graph.add(
        "mapreduce",
        preds=[features, bank],
        name="sq_dist",
        parallel=k,
        width=dim,
        chain_ops=2,
        reduce_op="sum",
        fn=sq_dist,
        transfer="sq_dist",
        payload={"bank": centroids, "in_fmt": in_fmt, "fmt": acc_fmt},
        # acc_fmt covers the max centroid-to-centroid distance; corner
        # inputs can exceed it, and a clipped distance ties only between
        # centroids that are all far away — argmin still picks a sane
        # cluster for outliers.
        waivers=("an-may-saturate",),
    )
    gathered = graph.add("gather", preds=[dist], name="gather_dist", width=k)
    nearest = graph.add(
        "reduce",
        preds=[gathered],
        name="argmin",
        width=k,
        reduce_op="argmin",
        fn=argmin,
    )
    graph.add("output", preds=[nearest], name="cluster", width=1)
    return _verified(graph)


# ----------------------------------------------------------------------
# LSTM (Indigo congestion control)
# ----------------------------------------------------------------------
#: Most ``rows x fan_in x fan_out`` multiply-adds handed to one BLAS call.
#: OpenBLAS (0.3.31) runs a gemm on the calling thread up to M*N*K = 10^6
#: and threads anything larger, and on a shared 2-vCPU host the worker's
#: wake-up stalls such a call for milliseconds: ``(208, 37) @ (37, 128)``
#: 0.035 ms, ``(224, 37) @ (37, 128)`` 8.0 ms median.  3/4 of the threshold.
_SERIAL_GEMM_WORK = 3 << 18
#: Integer-valued float64 sums below this are exact in any order.
_EXACT_SUM_LIMIT = 1 << 53
#: The same for float32: below this the kernel's accumulator is float32.
_EXACT_F32_LIMIT = 1 << 24


def _lstm_kernel(fmt, window_steps, dim, w_gates, b_gates, w_out, b_out):
    """Compile the recurrent lowering into one batch function, or ``None``.

    Feature-major, like the block's lanes: ``h``, ``c`` and the gates are
    ``(units, B)`` rows of raw ``fmt`` integers across all steps, and the
    window is quantized once.  A gate step is one float matmul, ``[w /
    scale, b_raw + offset] @ [x_t; h_raw; 1]``, then ``rint`` and one
    ``take(..., mode="clip")`` per gate block: the reference's ``sum(zq *
    w) + b`` in raw units exactly, with ``/ scale`` folded into the weights
    (exact: ``scale`` is a power of two) and the bias and the table index
    offset ``-raw_min`` riding in the ones row.  The offset is even, so
    half-to-even ``rint`` commutes with it, and the clipped index is the
    saturated value's, so the lookup is the saturation.  Gates run in the
    order i, f, o, g; the f and g tables hold their values ``/ scale``, so
    ``c * f + i * g`` is already the new cell in raw units (exact: every
    product stays under 2^24).  Every partial sum is a multiple of ``1 /
    scale`` whose numerator stays below ``(dim + hidden + 4) * raw_min**2``
    (proved here: under 2^24 the arithmetic is float32, under 2^53
    float64, else ``None``), so the sum is exact in any order.
    Nonlinearities are table lookups (``tanh_pw(c)`` unrounded, like the
    reference).  ``h = rint(o * tanh_pw(c))`` needs no clip: the tables
    bound it by ``max|sigmoid| * max|tanh_pw|``, which is checked here to
    lie inside the format (else ``None``).  Element-wise work runs on all
    rows at once, in buffers allocated once per call; only the matmuls run
    in column tiles that stay under :data:`_SERIAL_GEMM_WORK`.  Like
    :func:`_dnn_kernel`'s, the kernel lists its lookups as ``tables``.
    """
    scale, lo, hi, hidden = fmt.scale, fmt.raw_min, fmt.raw_max, w_out.shape[1]
    # Raw operands are at most |lo|, scale <= |lo| and the ones row's
    # weight is at most 4 |lo|: no partial sum's numerator exceeds this.
    bound = (dim + hidden + 4) * lo * lo
    if fmt.total_bits > _MAX_TABLE_BITS or bound >= _EXACT_SUM_LIMIT:
        return None
    dtype = np.float32 if bound < _EXACT_F32_LIMIT else np.float64
    sigmoid = _raw_domain_table(fmt, sigmoid_piecewise, fmt.quantize)
    cell_tanh = _raw_domain_table(fmt, tanh_piecewise)
    if np.abs(sigmoid).max() * np.abs(cell_tanh).max() > hi:
        return None  # h could saturate: the kernel has no h clip
    gate_tanh = _raw_domain_table(fmt, tanh_piecewise, fmt.quantize)
    tables = [t.astype(dtype) for t in (sigmoid, sigmoid / scale, sigmoid, gate_tanh / scale)]
    # The lowering's gate blocks are i, f, g, o; the kernel's i, f, o, g.
    order = np.concatenate([np.arange(k * hidden, (k + 1) * hidden) for k in (0, 1, 3, 2)])
    assert lo % 2 == 0, "rint commutes only with an even offset"
    # Parameters are already on fmt's grid: ``* scale`` recovers the raw.
    # C order: OpenBLAS threads a gemm on a transposed operand far below 10^6.
    wg = np.ascontiguousarray(
        np.column_stack([w_gates[order], b_gates[order] * scale - lo]), dtype)
    wo = np.ascontiguousarray(np.column_stack([w_out, b_out * scale]), dtype)
    tile = max(1, _SERIAL_GEMM_WORK // wg.size)
    blocks = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]
    s_i, s_f, s_o, s_g = blocks

    def kernel(features: np.ndarray, state: dict) -> np.ndarray:
        x_raw = fmt.quantize_float(features.T)  # (steps * dim, B)
        n = x_raw.shape[1]
        tiles = [slice(start, start + tile) for start in range(0, n, tile)]
        z = np.zeros((dim + hidden + 1, n), dtype=dtype)  # [x_t; h; 1]; h and c start at 0
        z[-1] = 1
        h = z[dim:-1]
        c = np.zeros((hidden, n), dtype=dtype)
        gates = np.empty((4 * hidden, n), dtype=dtype)  # pre-activations, then values
        index = np.empty((4 * hidden, n), dtype=np.intp)
        cell = np.empty((hidden, n))  # float64: tanh_pw(c) is unrounded
        for t in range(window_steps):
            z[:dim] = x_raw[t * dim : (t + 1) * dim]
            for cols in tiles:
                np.matmul(wg, z[:, cols], out=gates[:, cols])
            np.rint(gates, out=gates)
            np.copyto(index, gates, casting="unsafe")
            for table, rows in zip(tables, blocks):
                table.take(index[rows], mode="clip", out=gates[rows])
            c *= gates[s_f]
            c += np.multiply(gates[s_i], gates[s_g], out=gates[s_i])
            np.rint(c, out=c)
            np.clip(c, lo, hi, out=c)
            np.subtract(c, lo, out=index[s_i], casting="unsafe")
            cell_tanh.take(index[s_i], mode="clip", out=cell)  # c is in range; clip is faster
            cell *= gates[s_o]
            np.rint(cell, out=h)
        logits = np.empty((wo.shape[0], n), dtype=dtype)
        for cols in tiles:
            logits[:, cols] = wo @ z[dim:, cols]
        np.rint(logits, out=logits)  # then clip: argmax sees the saturated ties
        np.clip(logits, lo, hi, out=logits)
        state["h"], state["c"] = (fmt.dequantize(np.ascontiguousarray(v.T)) for v in (h, c))
        return logits.argmax(axis=0).reshape(-1, 1)

    kernel.tables = [(fmt, table) for table in (*tables, cell_tanh)]
    return kernel


def lstm_graph(
    lstm,
    window_steps: int = 8,
    fmt: FixedPointFormat = FIX8,
    name: str = "lstm",
) -> DataflowGraph:
    """Lower a trained :class:`~repro.ml.lstm.LSTM`.

    The recurrence forces sequential execution: the step subgraph runs once
    per history element (``temporal_iterations``), reusing the same CUs with
    hidden state parked in MUs — this is why the paper's Indigo latency
    (805 ns) is ~10x a feed-forward model's.  The packet's feature payload
    is the flattened (T, D) observation window.  ``execute_batch`` runs the
    compiled ``kernel`` (:func:`_lstm_kernel`); the nodes stay the reference.
    """
    hidden = lstm.hidden_size
    dim = lstm.input_size
    w_gates = fmt.roundtrip(np.clip(lstm.w_gates, fmt.min_value, fmt.max_value))
    b_gates = fmt.roundtrip(np.clip(lstm.b_gates, fmt.min_value, fmt.max_value))
    w_out = fmt.roundtrip(np.clip(lstm.w_out, fmt.min_value, fmt.max_value))
    b_out = fmt.roundtrip(np.clip(lstm.b_out, fmt.min_value, fmt.max_value))

    graph = DataflowGraph(name=name, temporal_iterations=window_steps)
    window = graph.add(
        "input",
        name="window",
        width=window_steps * dim,
        # Congestion-control observations are normalized into the
        # datapath format before lowering onto the fabric.
        value_range=(fmt.min_value, fmt.max_value),
    )

    # State arrays ("h", "c") carry a leading batch axis — (B, hidden).
    def select_step(flat: np.ndarray, state: dict) -> np.ndarray:
        t = state.get("iteration", 0)
        return flat.reshape(-1, window_steps, dim)[:, t, :]

    select_step.wants_state = True
    x_t = graph.add(
        "map", preds=[window], name="select_step", width=dim, chain_ops=1,
        fn=select_step,
        transfer="slice",
    )

    def read_hidden(x: np.ndarray, state: dict) -> np.ndarray:
        return state.get("h", np.zeros((x.shape[0], hidden)))

    read_hidden.wants_state = True
    h_prev = graph.add(
        "map", preds=[window], name="read_h", width=hidden, chain_ops=1,
        fn=read_hidden,
        transfer="state_read",
        payload={"keys": ("h",)},
    )
    concat = graph.add(
        "gather", preds=[x_t, h_prev], name="concat", width=dim + hidden
    )
    bank = graph.add(
        "const", name="w_gates", weight_values=w_gates.size + b_gates.size,
        payload={"values": np.concatenate([w_gates.ravel(), b_gates.ravel()])},
    )

    def gate_matvec(z: np.ndarray) -> np.ndarray:
        zq = fmt.roundtrip(z)
        return fmt.roundtrip(
            np.sum(zq[:, None, :] * w_gates[None, :, :], axis=-1) + b_gates
        )

    gates = graph.add(
        "dot",
        preds=[concat, bank],
        name="gate_matvec",
        parallel=4 * hidden,
        width=dim + hidden,
        chain_ops=1,
        reduce_op="sum",
        fn=gate_matvec,
        transfer="dot",
        payload={
            "weights": w_gates,
            "bias": b_gates,
            "in_fmt": fmt,
            "fmt": fmt,
        },
        # Gate pre-activations feed squashing nonlinearities; clipping a
        # large pre-activation only drives its sigmoid/tanh deeper into
        # the flat tail it was already in.
        waivers=("an-may-saturate",),
    )

    def cell_update(gate_pre: np.ndarray, state: dict) -> np.ndarray:
        i = fmt.roundtrip(sigmoid_piecewise(gate_pre[:, 0 * hidden : 1 * hidden]))
        f = fmt.roundtrip(sigmoid_piecewise(gate_pre[:, 1 * hidden : 2 * hidden]))
        g = fmt.roundtrip(tanh_piecewise(gate_pre[:, 2 * hidden : 3 * hidden]))
        o = fmt.roundtrip(sigmoid_piecewise(gate_pre[:, 3 * hidden : 4 * hidden]))
        c_prev = state.get("c", np.zeros((gate_pre.shape[0], hidden)))
        c = fmt.roundtrip(f * c_prev + i * g)
        h = fmt.roundtrip(o * tanh_piecewise(c))
        state["c"] = c
        state["h"] = h
        return h

    cell_update.wants_state = True
    # Gate nonlinearities run element-wise in the lanes right after the
    # matvec (no global gather is needed): 3 piecewise sigmoids + 1
    # piecewise tanh over 4H values in parallel, then the cell/hidden
    # updates (2 muls + add; tanh; mul) fused into the tail of the chain.
    sig_spec = ACTIVATIONS["sigmoid_pw"]
    updated_h = graph.add(
        "map",
        preds=[gates],
        name="cell_update",
        width=4 * hidden,
        chain_ops=sig_spec.chain_ops + 6,
        fn=cell_update,
        # h = o * tanh(c) with o in [0, 1]: certified by construction,
        # independent of how far the carried cell state wanders.
        value_range=(-1.0, 1.0),
        payload={
            "state_ranges": {
                "h": (-1.0, 1.0),
                "c": (fmt.min_value, fmt.max_value),
            },
        },
    )

    # The action head runs once, after the final history element.
    def action_head(h: np.ndarray) -> np.ndarray:
        return fmt.roundtrip(
            np.sum(h[:, None, :] * w_out[None, :, :], axis=-1) + b_out
        )

    def argmax(logits: np.ndarray) -> np.ndarray:
        return np.argmax(logits, axis=-1, keepdims=True)

    head_bank = graph.add(
        "const", name="w_out", weight_values=w_out.size + b_out.size,
        payload={"values": np.concatenate([w_out.ravel(), b_out.ravel()])},
    )
    head = graph.add(
        "dot",
        preds=[updated_h, head_bank],
        name="action_head",
        parallel=lstm.n_actions,
        width=hidden,
        chain_ops=1,
        reduce_op="sum",
        fn=action_head,
        epilogue=True,
        transfer="dot",
        payload={
            "weights": w_out,
            "bias": b_out,
            "in_fmt": fmt,
            "fmt": fmt,
        },
    )
    head_vec = graph.add(
        "gather", preds=[head], name="gather_head", width=lstm.n_actions, epilogue=True
    )
    action = graph.add(
        "reduce",
        preds=[head_vec],
        name="argmax",
        width=lstm.n_actions,
        reduce_op="argmax",
        fn=argmax,
        epilogue=True,
    )
    graph.add("output", preds=[action], name="action", width=1, epilogue=True)
    _verified(graph)
    graph.kernel = _lstm_kernel(fmt, window_steps, dim, w_gates, b_gates, w_out, b_out)
    return graph


# ----------------------------------------------------------------------
# Microbenchmarks (Table 6 / Table 7)
# ----------------------------------------------------------------------
def inner_product_graph(width: int = 16) -> DataflowGraph:
    """A 16-element inner product — the perceptron core (Table 6)."""
    fmt = FIX8
    rng = np.random.default_rng(width)
    weights = fmt.roundtrip(rng.uniform(-1, 1, size=width))

    def dot_fn(x: np.ndarray) -> np.ndarray:
        return fmt.roundtrip(
            np.sum(fmt.roundtrip(x) * weights, axis=-1, keepdims=True)
        )

    graph = DataflowGraph(name=f"inner_product_{width}")
    features = graph.add(
        "input",
        name="x",
        width=width,
        # Table 6 microbenchmarks drive unit-range stimulus.
        value_range=(-1.0, 1.0),
    )
    bank = graph.add(
        "const", name="w", weight_values=width, payload={"values": weights}
    )
    dot = graph.add(
        "dot",
        preds=[features, bank],
        name="dot",
        parallel=1,
        width=width,
        chain_ops=1,
        reduce_op="sum",
        fn=dot_fn,
        transfer="dot",
        payload={"weights": weights.reshape(1, -1), "in_fmt": fmt, "fmt": fmt},
        # Sum(|w|) over 16 unit-range lanes can exceed the Q3.4 range;
        # the perceptron microbenchmark measures latency, and a clipped
        # score keeps its sign.
        waivers=("an-may-saturate",),
    )
    graph.add("output", preds=[dot], name="y", width=1)
    return _verified(graph)


def activation_graph(spec_name: str) -> DataflowGraph:
    """A standalone 16-wide fix8 line-rate activation (Table 6 / Fig. 10)."""
    spec = ACTIVATIONS[spec_name]
    width, fmt = 16, FIX8

    # Sound output range for the table contents: sample the reference
    # implementation over the clipped domain and pad by a Lipschitz step
    # (one-time lowering cost; the range transfer treats it as certified).
    _xs = np.linspace(-8.0, 8.0, 1025)
    _ys = np.asarray(spec.fn(_xs), dtype=np.float64)
    _pad = 2 * 16.0 / 1024
    lut_range = (float(_ys.min()) - _pad, float(_ys.max()) + _pad)

    # All three stages are element-wise over (B, width) blocks.
    def clip_addr(x: np.ndarray) -> np.ndarray:
        return np.clip(x, -8.0, 8.0)

    def table_read(x: np.ndarray) -> np.ndarray:
        return fmt.roundtrip(spec.fn(x))

    def identity(y: np.ndarray) -> np.ndarray:
        return y

    graph = DataflowGraph(name=spec_name)
    features = graph.add(
        "input",
        name="x",
        width=width,
        # Activation sweeps drive the datapath format's full range.
        value_range=(fmt.min_value, fmt.max_value),
    )
    cursor = features
    if spec.lut_tables:
        # Address computation, MU table read, rescale.
        addr = graph.add(
            "map", preds=[cursor], name="lut_addr", width=width, chain_ops=3,
            fn=clip_addr,
            transfer="clip",
            payload={"clip": (-8.0, 8.0)},
        )
        table = graph.add(
            "lut", preds=[addr], name="table", width=width, weight_values=1024,
            fn=table_read,
            transfer="lut",
            payload={
                "domain": (-8.0, 8.0),
                "range": lut_range,
                "fmt": fmt,
            },
        )
        cursor = graph.add(
            "map", preds=[table], name="rescale", width=width, chain_ops=3,
            fn=identity,
            transfer="identity",
        )
    else:
        cursor = graph.add(
            "map",
            preds=[cursor],
            name=spec.name,
            width=width,
            chain_ops=spec.chain_ops,
            fn=table_read,
            transfer=spec.name if spec.name in _ACT_TRANSFER_NAMES else None,
            payload={"fmt": fmt},
        )
    graph.add("output", preds=[cursor], name="y", width=width)
    return _verified(graph)


def conv1d_graph(unroll: int = 8) -> DataflowGraph:
    """A fix8 1-D convolution, 8 outputs of 2 taps, unrolled ``unroll``-way
    (Tables 6-7).

    Convolution "does not map well to vectorized MapReduce (there are
    multiple small inner reductions)": each output needs window extraction
    (lane shifts), a tiny 2-wide dot, and an accumulate/realign step.
    ``unroll`` output slices execute in space; the remaining
    ``8 / unroll`` iterations share them in time, dividing line rate
    accordingly.
    """
    n_outputs, kernel, fmt = 8, 2, FIX8
    if n_outputs % unroll:
        raise ValueError("unroll must divide n_outputs")
    rng = np.random.default_rng(kernel)
    taps = fmt.roundtrip(rng.uniform(-1, 1, size=kernel))
    width_in = n_outputs + kernel - 1

    # Each slice and reduction works on the last axis of a (B, width) block.
    def window_fn(s: int):
        return lambda x: x[..., s : s + kernel]

    def identity(w: np.ndarray) -> np.ndarray:
        return w

    def tap_dot(w: np.ndarray) -> np.ndarray:
        return fmt.roundtrip(np.sum(w * taps, axis=-1, keepdims=True))

    graph = DataflowGraph(name=f"conv1d_u{unroll}")
    graph.initiation_interval = n_outputs // unroll
    features = graph.add(
        "input",
        name="x",
        width=width_in,
        # Table 6 microbenchmarks drive unit-range stimulus.
        value_range=(-1.0, 1.0),
    )
    bank = graph.add(
        "const", name="taps", weight_values=kernel, payload={"values": taps}
    )
    slices = []
    for s in range(unroll):
        slice_fn = window_fn(s)
        window = graph.add(
            "map", preds=[features], name=f"window{s}", width=kernel, chain_ops=2,
            fn=slice_fn,
            transfer="slice",
        )
        align = graph.add(
            "map", preds=[window], name=f"align{s}", width=kernel, chain_ops=2,
            fn=identity,
            transfer="identity",
        )
        dot = graph.add(
            "mapreduce",
            preds=[align, bank],
            name=f"tap_dot{s}",
            parallel=1,
            width=kernel,
            chain_ops=1,
            reduce_op="sum",
            fn=tap_dot,
            transfer="dot",
            payload={"weights": taps.reshape(1, -1), "fmt": fmt},
        )
        accum = graph.add(
            "map", preds=[dot], name=f"accum{s}", width=1, chain_ops=1,
            fn=identity,
            transfer="identity",
        )
        slices.append(accum)
    gathered = graph.add("gather", preds=slices, name="gather_out", width=unroll)
    graph.add("output", preds=[gathered], name="y", width=unroll)
    return _verified(graph)
