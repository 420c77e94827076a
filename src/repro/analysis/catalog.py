"""The shipped-program catalog the CLI / CI lint gate verifies.

``python -m repro.analysis`` needs concrete graphs to check, and "the
graphs this repo ships" is a fixed list: the four paper applications
(anomaly DNN, RBF-SVM, KMeans, Indigo LSTM) and the Table 6/7
microbenchmarks.  This module builds them from small, seeded trainings —
sized for seconds, not fidelity; the verifier checks program structure
and execution contracts, which do not depend on model quality.

The range gate runs over this same list: every shipped graph must be
saturation-clean under :func:`~repro.analysis.ranges.analyze_ranges`, or
carry explicit per-node ``an-*`` waivers attached at lowering (which
downgrade to auditable info findings the CLI prints with ``-v``).

What the checks run on these graphs catch is measured separately:
``tests/test_analysis_yield.py`` seeds bugs into copies of the lowerings
and the runtime and pins which check fires on each.
"""

from __future__ import annotations

__all__ = ["shipped_graphs"]

#: Seeded training sizes — small enough for a CI lint job.
_N_CONNECTIONS = 800
_N_CLUSTER = 400


def _trained_quantized_dnn():
    from ..datasets import dnn_feature_matrix, generate_connections
    from ..fixpoint import quantize_model
    from ..ml import anomaly_detection_dnn

    conns = generate_connections(_N_CONNECTIONS, seed=11)
    x = dnn_feature_matrix(conns)
    model = anomaly_detection_dnn(seed=3)
    model.fit(x, conns.labels, epochs=2, batch_size=64)
    return quantize_model(model, x[:128])


def shipped_graphs() -> list:
    """Every dataflow graph the repo ships, freshly lowered."""
    from ..datasets import (
        generate_connections,
        iot_cluster_dataset,
        svm_feature_matrix,
    )
    from ..mapreduce import (
        activation_graph,
        conv1d_graph,
        dnn_graph,
        inner_product_graph,
        kmeans_graph,
        lstm_graph,
        svm_graph,
    )
    from ..ml import KMeans, RBFKernelSVM, indigo_lstm

    graphs = [dnn_graph(_trained_quantized_dnn())]

    conns = generate_connections(_N_CONNECTIONS, seed=11)
    svm = RBFKernelSVM(budget=16, epochs=1, seed=3)
    svm.fit(svm_feature_matrix(conns)[:400], conns.labels[:400])
    graphs.append(svm_graph(svm))

    features, __ = iot_cluster_dataset(_N_CLUSTER, seed=7)
    graphs.append(kmeans_graph(KMeans(n_clusters=5, seed=7).fit(features)))

    # Structure is weight-independent; untrained seeded weights suffice.
    graphs.append(lstm_graph(indigo_lstm(seed=0)))

    graphs.append(inner_product_graph(16))
    graphs.extend(
        activation_graph(name)
        for name in (
            "relu",
            "leaky_relu",
            "tanh_exp",
            "sigmoid_exp",
            "tanh_pw",
            "sigmoid_pw",
            "act_lut",
        )
    )
    graphs.append(conv1d_graph(unroll=8))
    return graphs

