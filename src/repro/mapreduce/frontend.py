"""Model frontends: lower trained ML models to dataflow graphs.

Each function builds the :class:`~repro.mapreduce.ir.DataflowGraph` a
Spatial-style compiler would produce for the paper's benchmarks
(Section 5.1.2-5.1.3): innermost loops become SIMD operations within CUs,
outer loops map over parallel CUs, and recurrences become temporal
iterations over the same hardware.

Every node's semantics are written batch-first — a ``batch_fn`` over
``(B, width)`` arrays — and the scalar ``fn`` is the same callable adapted
through :func:`_single` (or the identical function when the operation is
element-wise / reduces along ``axis=-1``).  That construction is what makes
``DataflowGraph.execute_batch`` bit-identical to per-packet ``execute``:
both paths run the very same numpy expressions, only the leading batch
axis differs.  Batched reductions deliberately avoid BLAS matmuls
(``sum(a * w, axis=-1)`` instead of ``a @ w``) so results do not drift
with batch size.  The one exception is a sum of integer-valued float64
terms that stays below 2^53: every partial sum is then exact, so the
result does not depend on the order BLAS adds in, nor on how many threads
it splits the sum over.
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
    execution probe, no budget pricing — both belong to the CLI/CI gate;
    training loops re-lower after every weight update, so this must stay
    O(nodes)) and raises on any error-severity finding.  Lazy import:
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

    The kernel quantizes the features once at the PHV boundary and then
    stays on raw fixed-point values: per layer the shared
    :meth:`~repro.fixpoint.quantize.QuantizedLinear.mac_raw`, then one
    lookup in a table over the layer's whole ``act_fmt`` raw domain.  The
    table is filled here by running the reference hop — ``dequantize``,
    the layer's ``activations`` entry (the very callable its ``map`` node
    runs; ``None`` for a linear layer), the next layer's
    ``in_fmt.quantize`` — on every representable value; the last table
    holds the float scores.  Returns ``None`` (the interpreter runs) when
    a hop is not element-wise or a domain is too large to tabulate.
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
    quantize_input = layers[0].in_fmt.quantize

    def kernel(features: np.ndarray, state: dict) -> np.ndarray:
        raw = quantize_input(features)
        for mac_raw, raw_min, table in steps:
            index = mac_raw(raw)
            index -= raw_min
            raw = table[index.astype(np.intp)]
        return raw

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
            fn=_single(layer.linear),
            batch_fn=layer.linear,
            transfer="dot",
            payload={
                "weights": w_real,
                "bias": b_real,
                "in_fmt": layer.in_fmt,
                "fmt": layer.act_fmt,
                "w_frac_bits": int(layer.w_frac.max()),
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
            # Element-wise on any shape: one callable serves both paths.
            act_fn = batch_act_fn = layer.activate
            spec = ACTIVATIONS[HW_ACTIVATION_FOR.get(layer.activation, "relu")]
            # The exact model activations are registered transfers too.
            act_transfer = (
                layer.activation
                if layer.activation in ("relu", "leaky_relu", "sigmoid", "tanh")
                else None
            )
        else:
            act_fn, spec = _hw_activation_fn(layer.activation, layer.act_fmt)
            batch_act_fn = act_fn
            act_transfer = spec.name
        activations.append(batch_act_fn)
        cursor = graph.add(
            "map",
            preds=[cursor],
            name=f"{spec.name}{i}",
            width=out_units,
            chain_ops=spec.chain_ops,
            fn=act_fn,
            batch_fn=batch_act_fn,
            weight_values=spec.lut_tables * 1024,
            transfer=act_transfer,
            payload={"fmt": layer.act_fmt},
        )
    # Not cursor.width: a bare one-unit dot's width is its fan-in.
    graph.add("output", preds=[cursor], name="score", width=out_units)
    _verified(graph)
    graph.kernel = _dnn_kernel(qmodel.layers, activations)
    return graph


def _single(batch_fn):
    """Adapt a batch (n, d) function to single-vector graph semantics.

    The wrapper runs the *same* batched computation with ``B == 1`` and
    peels the row off, so scalar and batched execution share bits.  State
    flows through untouched (state arrays then carry a leading batch axis
    of 1, consistently for every node in the pass).
    """

    def apply(x: np.ndarray, **kwargs) -> np.ndarray:
        return np.asarray(batch_fn(np.atleast_2d(x), **kwargs))[0]

    apply.wants_state = getattr(batch_fn, "wants_state", False)
    return apply


def _sq_dist_fn(bank: np.ndarray, in_fmt: FixedPointFormat, acc_fmt: FixedPointFormat):
    """Batched squared distances to each row of a resident ``bank``.

    Shared by the SVM (support vectors) and KMeans (centroids) lowerings —
    the quantize/clip/square/reduce sequence must stay identical in both
    for the batch==scalar bit-identity contract.
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
        fn=_single(sq_dist),
        batch_fn=sq_dist,
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
        batch_fn=scale_gamma,
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
        batch_fn=exp_lut,
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
        batch_fn=weighted_sum,
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
        batch_fn=bias_threshold,
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
        fn=_single(sq_dist),
        batch_fn=sq_dist,
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
        batch_fn=argmin,
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


def _lstm_kernel(fmt, window_steps, dim, w_gates, b_gates, w_out, b_out):
    """Compile the recurrent lowering into one batch function, or ``None``.

    The window is quantized once; ``h``, ``c`` and the gates stay raw
    ``fmt`` integers (in float64) across all steps.  A mat-vec is a float
    matmul on raw values, ``z_raw @ w_raw.T + b_raw * scale``: the
    reference's ``sum(zq * w) + b`` in units of ``scale**-2`` exactly, every
    partial sum an integer below 2^53 (proved here, else ``None``); then
    ``/ scale``, ``rint``, clip as in ``fmt.quantize``.  Nonlinearities are
    table lookups (``tanh_pw(c)`` unrounded, like the reference).  Rows run
    in tiles — all steps, then the head — that keep the gate mat-vec under
    :data:`_SERIAL_GEMM_WORK`.
    """
    scale, lo, hi, hidden = fmt.scale, fmt.raw_min, fmt.raw_max, w_out.shape[1]
    # Raw operands are at most |lo| and scale <= |lo|: no partial sum exceeds this.
    if fmt.total_bits > _MAX_TABLE_BITS or (dim + hidden + 1) * lo * lo >= _EXACT_SUM_LIMIT:
        return None
    # Parameters are already on fmt's grid: ``* scale`` recovers the raw.
    wg, bg = np.ascontiguousarray((w_gates * scale).T), b_gates * scale * scale
    wo, bo = np.ascontiguousarray((w_out * scale).T), b_out * scale * scale
    tile = max(1, _SERIAL_GEMM_WORK // wg.size)
    sigmoid = _raw_domain_table(fmt, sigmoid_piecewise, fmt.quantize)
    # One table for all four gates: the g columns index its tanh half.
    gate_table = np.concatenate([sigmoid, _raw_domain_table(fmt, tanh_piecewise, fmt.quantize)])
    gate_index = np.full(4 * hidden, -lo, dtype=np.float64)
    gate_index[2 * hidden : 3 * hidden] += sigmoid.size
    cell_tanh = _raw_domain_table(fmt, tanh_piecewise)
    s_i, s_f, s_g, s_o = (slice(k * hidden, (k + 1) * hidden) for k in range(4))

    def round_clip(acc: np.ndarray) -> np.ndarray:  # fmt.quantize, in place, still float
        np.rint(acc, out=acc)
        np.maximum(acc, lo, out=acc)
        return np.minimum(acc, hi, out=acc)

    def kernel(features: np.ndarray, state: dict) -> np.ndarray:
        x_raw = fmt.quantize(features)
        actions = np.empty((len(x_raw), 1), dtype=np.intp)
        h_all = np.empty((len(x_raw), hidden), dtype=fmt.storage_dtype)
        c_all = np.empty_like(h_all)
        for start in range(0, len(x_raw), tile):
            rows = slice(start, start + tile)
            x = x_raw[rows]
            z = np.zeros((len(x), dim + hidden))  # [x_t, h]; h and c start at 0
            h = z[:, dim:]
            c = np.zeros((len(x), hidden))
            acc = np.empty((len(x), 4 * hidden))
            for t in range(window_steps):
                z[:, :dim] = x[:, t * dim : (t + 1) * dim]
                np.matmul(z, wg, out=acc)
                acc += bg
                acc /= scale
                round_clip(acc)
                acc += gate_index
                gates = gate_table.take(acc.astype(np.intp))
                c *= gates[:, s_f]
                c += gates[:, s_i] * gates[:, s_g]
                c /= scale
                round_clip(c)
                h[:] = gates[:, s_o] * cell_tanh.take((c - lo).astype(np.intp))
                round_clip(h)
            logits = (h @ wo + bo) / scale
            actions[rows, 0] = round_clip(logits).argmax(axis=1)
            h_all[rows], c_all[rows] = h, c
        state["h"], state["c"] = fmt.dequantize(h_all), fmt.dequantize(c_all)
        return actions

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

    # State arrays ("h", "c") carry a leading batch axis — (B, hidden) —
    # in both paths (the scalar interpreter runs the same fns with B = 1).
    def select_step(flat: np.ndarray, state: dict) -> np.ndarray:
        t = state.get("iteration", 0)
        return flat.reshape(-1, window_steps, dim)[:, t, :]

    select_step.wants_state = True
    x_t = graph.add(
        "map", preds=[window], name="select_step", width=dim, chain_ops=1,
        fn=_single(select_step), batch_fn=select_step,
        transfer="slice",
    )

    def read_hidden(x: np.ndarray, state: dict) -> np.ndarray:
        return state.get("h", np.zeros((x.shape[0], hidden)))

    read_hidden.wants_state = True
    h_prev = graph.add(
        "map", preds=[window], name="read_h", width=hidden, chain_ops=1,
        fn=_single(read_hidden), batch_fn=read_hidden,
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
        fn=_single(gate_matvec),
        batch_fn=gate_matvec,
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
        fn=_single(cell_update),
        batch_fn=cell_update,
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
        fn=_single(action_head),
        batch_fn=action_head,
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
        batch_fn=argmax,
        epilogue=True,
    )
    graph.add("output", preds=[action], name="action", width=1, epilogue=True)
    _verified(graph)
    graph.kernel = _lstm_kernel(fmt, window_steps, dim, w_gates, b_gates, w_out, b_out)
    return graph


# ----------------------------------------------------------------------
# Microbenchmarks (Table 6 / Table 7)
# ----------------------------------------------------------------------
def inner_product_graph(width: int = 16, fmt: FixedPointFormat = FIX8) -> DataflowGraph:
    """A 16-element inner product — the perceptron core (Table 6)."""
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
        batch_fn=dot_fn,
        transfer="dot",
        payload={"weights": weights.reshape(1, -1), "in_fmt": fmt, "fmt": fmt},
        # Sum(|w|) over 16 unit-range lanes can exceed the Q3.4 range;
        # the perceptron microbenchmark measures latency, and a clipped
        # score keeps its sign.
        waivers=("an-may-saturate",),
    )
    graph.add("output", preds=[dot], name="y", width=1)
    return _verified(graph)


def activation_graph(
    spec_name: str, width: int = 16, fmt: FixedPointFormat = FIX8
) -> DataflowGraph:
    """A standalone line-rate activation (Table 6 / Fig. 10)."""
    spec = ACTIVATIONS[spec_name]

    # Sound output range for the table contents: sample the reference
    # implementation over the clipped domain and pad by a Lipschitz step
    # (one-time lowering cost; the range transfer treats it as certified).
    _xs = np.linspace(-8.0, 8.0, 1025)
    _ys = np.asarray(spec.fn(_xs), dtype=np.float64)
    _pad = 2 * 16.0 / 1024
    lut_range = (float(_ys.min()) - _pad, float(_ys.max()) + _pad)

    # All three stages are element-wise: the same callables serve the
    # scalar and the (B, width) batched path.
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
            fn=clip_addr, batch_fn=clip_addr,
            transfer="clip",
            payload={"clip": (-8.0, 8.0)},
        )
        table = graph.add(
            "lut", preds=[addr], name="table", width=width, weight_values=1024,
            fn=table_read, batch_fn=table_read,
            transfer="lut",
            payload={
                "domain": (-8.0, 8.0),
                "range": lut_range,
                "fmt": fmt,
            },
        )
        cursor = graph.add(
            "map", preds=[table], name="rescale", width=width, chain_ops=3,
            fn=identity, batch_fn=identity,
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
            batch_fn=table_read,
            transfer=spec.name if spec.name in _ACT_TRANSFER_NAMES else None,
            payload={"fmt": fmt},
        )
    graph.add("output", preds=[cursor], name="y", width=width)
    return _verified(graph)


def conv1d_graph(
    n_outputs: int = 8,
    kernel: int = 2,
    unroll: int = 8,
    fmt: FixedPointFormat = FIX8,
) -> DataflowGraph:
    """A 1-D convolution, unrolled ``unroll``-way (Tables 6-7).

    Convolution "does not map well to vectorized MapReduce (there are
    multiple small inner reductions)": each output needs window extraction
    (lane shifts), a tiny ``kernel``-wide dot, and an accumulate/realign
    step.  ``unroll`` output slices execute in space; the remaining
    ``n_outputs / unroll`` iterations share them in time, dividing line
    rate accordingly.
    """
    if n_outputs % unroll:
        raise ValueError("unroll must divide n_outputs")
    rng = np.random.default_rng(kernel)
    taps = fmt.roundtrip(rng.uniform(-1, 1, size=kernel))
    width_in = n_outputs + kernel - 1

    # Slicing the last axis and reducing along it keeps one callable valid
    # for both the scalar (width,) and batched (B, width) layouts.
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
            fn=slice_fn, batch_fn=slice_fn,
            transfer="slice",
        )
        align = graph.add(
            "map", preds=[window], name=f"align{s}", width=kernel, chain_ops=2,
            fn=identity, batch_fn=identity,
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
            batch_fn=tap_dot,
            transfer="dot",
            payload={"weights": taps.reshape(1, -1), "fmt": fmt},
        )
        accum = graph.add(
            "map", preds=[dot], name=f"accum{s}", width=1, chain_ops=1,
            fn=identity, batch_fn=identity,
            transfer="identity",
        )
        slices.append(accum)
    gathered = graph.add("gather", preds=slices, name="gather_out", width=unroll)
    graph.add("output", preds=[gathered], name="y", width=unroll)
    return _verified(graph)
