"""Table 5: performance and resource overheads of the application models
(KMeans / SVM / DNN at line rate; Indigo LSTM folded) plus the 12x10 grid.

Paper values: KMeans 1 GPkt/s, 61 ns, 0.3 mm^2 (+0.2%), 177 mW (+0.3%);
SVM 83 ns, 0.6 mm^2, 395 mW; DNN 221 ns, 1.0 mm^2, 647 mW; LSTM 805 ns,
3.0 mm^2, 1897 mW; grid 4.8 mm^2 (+3.8%), +2.8% power.
"""

import pytest

from repro.compiler import compile_graph
from repro.core import render_table, write_result
from repro.datasets import iot_cluster_dataset, svm_feature_matrix
from repro.hw import TaurusChip
from repro.hw.grid import CU_BUDGET, MU_BUDGET
from repro.mapreduce import dnn_graph, kmeans_graph, lstm_graph, svm_graph
from repro.ml import KMeans, RBFKernelSVM, indigo_lstm

PAPER = {  # name: (GPkt/s, ns, mm2, mW)
    "iot_kmeans": (1.0, 61, 0.3, 177),
    "anomaly_svm": (1.0, 83, 0.6, 395),
    "anomaly_dnn": (1.0, 221, 1.0, 647),
    "indigo_lstm": (None, 805, 3.0, 1897),
}


@pytest.fixture(scope="module")
def designs(anomaly_q, split):
    train, __ = split
    xi, __yi = iot_cluster_dataset(1500, seed=0)
    kmeans = KMeans(5, seed=0).fit(xi)
    svm = RBFKernelSVM(budget=16, epochs=2, seed=0)
    svm.fit(svm_feature_matrix(train)[:800], train.labels[:800])
    return {
        "iot_kmeans": compile_graph(kmeans_graph(kmeans, name="iot_kmeans")),
        "anomaly_svm": compile_graph(svm_graph(svm, name="anomaly_svm")),
        "anomaly_dnn": compile_graph(dnn_graph(anomaly_q, name="anomaly_dnn")),
        "indigo_lstm": compile_graph(
            lstm_graph(indigo_lstm(seed=0), name="indigo_lstm"),
            cu_budget=CU_BUDGET, mu_budget=MU_BUDGET,
        ),
    }


def test_table5(benchmark, designs):
    chip = TaurusChip()

    def overheads():
        return {name: chip.design_overheads(d) for name, d in designs.items()}

    reports = benchmark(overheads)
    grid = chip.grid_overheads()
    rows = []
    for name, report in reports.items():
        paper_rate, paper_ns, paper_mm2, paper_mw = PAPER[name]
        rate = f"{report.throughput_gpkt_s:.2f}" if paper_rate else "--"
        rows.append(
            [name, rate, f"{report.latency_ns:.0f}", f"({paper_ns})",
             f"{report.area_mm2:.2f}", f"({paper_mm2})",
             f"{report.area_percent:.1f}%",
             f"{report.power_mw:.0f}", f"({paper_mw})",
             f"{report.power_percent:.1f}%"]
        )
    rows.append(
        ["12x10 grid", "--", "--", "", f"{grid.area_mm2:.1f}", "(4.8)",
         f"{grid.area_percent:.1f}%", f"{grid.power_mw:.0f}", "", f"{grid.power_percent:.1f}%"]
    )
    table = render_table(
        "Table 5: application overheads (measured vs paper in parens)",
        ["model", "GPkt/s", "ns", "paper", "mm^2", "paper", "+area",
         "mW", "paper", "+power"],
        rows,
    )
    print("\n" + table)
    write_result("table5_applications", table)

    # Shape assertions.
    assert reports["iot_kmeans"].latency_ns < reports["anomaly_svm"].latency_ns
    assert reports["anomaly_svm"].latency_ns < reports["anomaly_dnn"].latency_ns
    assert reports["anomaly_dnn"].latency_ns < reports["indigo_lstm"].latency_ns
    for name in ("iot_kmeans", "anomaly_svm", "anomaly_dnn"):
        assert reports[name].throughput_gpkt_s == 1.0     # line rate
        assert reports[name].area_percent < 1.5           # small overhead
    assert reports["indigo_lstm"].throughput_gpkt_s < 1.0
    # Magnitudes within a reasonable band of the paper.
    assert reports["iot_kmeans"].latency_ns == pytest.approx(61, abs=25)
    assert reports["anomaly_svm"].latency_ns == pytest.approx(83, abs=25)
    assert reports["anomaly_dnn"].latency_ns == pytest.approx(221, abs=80)
    assert reports["indigo_lstm"].latency_ns == pytest.approx(805, abs=120)
    # Grid-level overheads match the paper's headline numbers.
    assert grid.area_percent == pytest.approx(3.8, abs=0.2)
    assert grid.power_percent == pytest.approx(2.8, abs=0.2)


def test_table5_switch_latency_overhead(designs):
    """Section 5.1.2: added latency vs a 1 us switch (6.1/8.3/22.1%)."""
    chip = TaurusChip()
    kmeans_pct = chip.switch_latency_overhead_percent(designs["iot_kmeans"])
    dnn_pct = chip.switch_latency_overhead_percent(designs["anomaly_dnn"])
    assert 3 < kmeans_pct < 10
    assert 12 < dnn_pct < 30
