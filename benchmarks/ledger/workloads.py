"""Frozen workload definitions and the builders that turn a seed into a stack.

Everything here is *input* to the program under test: the trained and
quantized anomaly DNN, the Indigo LSTM, the generated packet columns, and
the factories that assemble the public runtime classes into the stack
configurations the ledger times.  Nothing in this file measures anything.

The numbers in :data:`WORKLOADS` are frozen on purpose.  In particular
``offered_req_per_s`` and ``decision_limit_ms`` were chosen once on the
seed commit (about 0.35x its capacity through the started service, and
about 20x its median time-to-decision, on the 2-CPU benchmark host) and are never re-derived
from the code under test: an open-loop load that followed the program's
speed would hide exactly the regressions the ledger exists to show.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.datasets import (
    CongestionTraceConfig,
    congestion_packet_trace,
    dnn_feature_matrix,
    expand_to_packets,
    generate_connections,
)
from repro.datasets.nslkdd import DNN_FEATURES
from repro.datasets.packets import TraceColumns
from repro.fixpoint import quantize_model
from repro.hw import MapReduceBlock
from repro.mapreduce import dnn_graph
from repro.ml import anomaly_detection_dnn, indigo_lstm
from repro.pisa import (
    DECISION_DROP,
    Action,
    MatchActionTable,
    MatchKind,
    TableEntry,
    TaurusPipeline,
    port_bypass,
    threshold_postprocess,
)
from repro.runtime import ClientSpec, FabricApp, MultiAppFabric, ShardedRuntime
from repro.testbed import chunk_columns

#: The full stack is fixed at two shards over the fork pool (the host has
#: two CPUs; ``nproc`` is recorded in every result's fingerprint).
SHARDS = 2
POOL = "fork"

#: App / client names.  Single-app workloads serve one app through two
#: clients; the multi-app workload binds one client per app.
ANOMALY = "anomaly"
CONGESTION = "congestion"

#: ``expand_to_packets`` draws every flow's ``dst_port`` from these six.
TRACE_PORTS = (80, 443, 22, 53, 8080, 3306)

#: Open-loop arrival shape (``bursty_schedule`` arguments).
BURST = {"burst_factor": 3.0, "burst_every": 16, "burst_len": 6}
SCHEDULE_SEED = 20220228
QUEUE_DEPTH = 64

LSTM_CONFIG = CongestionTraceConfig()


@dataclass(frozen=True)
class Workload:
    """One frozen traffic mix; see ``README.md`` for why each exists."""

    name: str
    why: str
    chunk: int
    #: Anomaly-DNN trace length; the serve phase cycles over all of it.
    dnn_packets: int
    #: Prefix of the anomaly trace one timed replay / drain / ladder pass
    #: covers: short (30-150 ms), so a run fits many passes and a noisy
    #: host leaves some of them undisturbed.
    pass_packets: int
    offered_req_per_s: float
    decision_limit_ms: float
    #: ``dst_port`` values that skip the ML block; the same workload also
    #: gets the MAT stage, so everything around the block does the work.
    bypass_ports: tuple[int, ...] = ()
    lstm_packets: int = 0
    lstm_pass_packets: int = 0
    #: Leading packets also pushed through scalar ``TaurusPipeline.process``.
    scalar_prefix: int = 64

    @property
    def multi_app(self) -> bool:
        return self.lstm_packets > 0

    def toy(self, max_packets: int = 1024) -> "Workload":
        """The same mix at smoke-test size (tier-1 runs this, not the ledger)."""
        return dataclasses.replace(
            self,
            dnn_packets=min(self.dnn_packets, max_packets),
            pass_packets=min(self.pass_packets, max_packets),
            lstm_packets=min(self.lstm_packets, 128),
            lstm_pass_packets=min(self.lstm_pass_packets, 128),
            scalar_prefix=16,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dnn_c8192",
            why="8192-packet chunks, every packet to the ML block: per-packet "
            "marginal cost (graph interpreter, fixpoint round trips) dominates",
            chunk=8192,
            dnn_packets=122_880,
            pass_packets=32_768,
            offered_req_per_s=21.0,
            decision_limit_ms=300.0,
        ),
        Workload(
            name="dnn_c64",
            why="same trace in 64-packet chunks: per-chunk fixed cost dominates "
            "every layer (pisa glue, pickle + pipe per chunk, one run per request)",
            chunk=64,
            dnn_packets=122_880,
            pass_packets=2048,
            offered_req_per_s=63.0,
            decision_limit_ms=100.0,
        ),
        Workload(
            name="bypass_c512",
            why="512-packet chunks, five of six dst_ports bypass ML, MATs installed: "
            "parser, registers, MATs, PHV glue do the work; graph changes predict no change",
            chunk=512,
            dnn_packets=122_880,
            pass_packets=16_384,
            offered_req_per_s=45.0,
            decision_limit_ms=130.0,
            bypass_ports=TRACE_PORTS[:5],
        ),
        Workload(
            name="multiapp_c512",
            why="anomaly DNN + Indigo LSTM through MultiAppFabric lanes: stateful "
            "temporal graph, argmax reduce, reconfigure swaps, per-app clients",
            chunk=512,
            dnn_packets=40_960,
            pass_packets=8192,
            offered_req_per_s=35.0,
            decision_limit_ms=90.0,
            lstm_packets=1024,
            lstm_pass_packets=512,
        ),
    )
}


@dataclass
class Inputs:
    """Everything generated from ``--seed``; the program only sees these."""

    workload: Workload
    seed: int
    quantized: object
    lstm: object | None
    #: Full time-sorted columns per app.
    traces: dict[str, TraceColumns]
    #: The first ``scalar_prefix`` packet records per app, for the scalar
    #: ``TaurusPipeline.process`` cross-check.
    prefix_records: dict[str, list]

    @property
    def apps(self) -> list[str]:
        return list(self.traces)

    def pass_traces(self) -> dict[str, TraceColumns]:
        """What one timed closed-loop pass replays."""
        prefix = {ANOMALY: self.workload.pass_packets, CONGESTION: self.workload.lstm_pass_packets}
        return {app: cols.slice(slice(0, prefix[app])) for app, cols in self.traces.items()}

    def clients(self) -> dict[str, str]:
        """Service client name -> app it is bound to."""
        if self.workload.multi_app:
            return {app: app for app in self.apps}
        return {"c0": ANOMALY, "c1": ANOMALY}

    def client_chunks(self, traces: dict[str, TraceColumns]) -> dict[str, list[TraceColumns]]:
        """Request-sized chunks per client (two single-app clients alternate)."""
        chunk = self.workload.chunk
        per_app = {app: chunk_columns(cols, chunk) for app, cols in traces.items()}
        clients = self.clients()
        if self.workload.multi_app:
            return {client: per_app[app] for client, app in clients.items()}
        names = list(clients)
        return {
            name: per_app[ANOMALY][i :: len(names)] for i, name in enumerate(names)
        }


def _sorted_columns(trace, prefix: int) -> tuple[TraceColumns, list]:
    columns = trace.columns()
    order = np.argsort(columns.times, kind="stable")
    if not np.array_equal(order, np.arange(columns.n)):
        columns = columns.take(order)
    records = [trace.packets[i] for i in order[:prefix]]
    return columns, records


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Train, quantize and generate every input from ``seed`` (same seed,
    same inputs).  The packet-record lists are dropped once columnarized so
    peak RSS reflects the program, not the generator."""
    n_connections = max(600, workload.dnn_packets // 18)
    dataset = generate_connections(n_connections, seed=seed)
    features = dnn_feature_matrix(dataset)
    model = anomaly_detection_dnn(seed=seed)
    model.fit(features, dataset.labels, epochs=8, batch_size=64)
    quantized = quantize_model(model, features[:512])
    trace = expand_to_packets(
        dataset,
        feature_matrix=features,
        max_packets=workload.dnn_packets,
        seed=seed * 7919 + 1,
    )
    if len(trace) < workload.dnn_packets:
        raise RuntimeError(
            f"trace generator produced {len(trace)} < {workload.dnn_packets} packets"
        )
    traces, prefix = {}, {}
    traces[ANOMALY], prefix[ANOMALY] = _sorted_columns(trace, workload.scalar_prefix)
    lstm = None
    if workload.multi_app:
        lstm = indigo_lstm(seed=seed)
        traces[CONGESTION], prefix[CONGESTION] = _sorted_columns(
            congestion_packet_trace(
                workload.lstm_packets, LSTM_CONFIG, seed=seed * 7919 + 2
            ),
            workload.scalar_prefix,
        )
    return Inputs(workload, seed, quantized, lstm, traces, prefix)


# ----------------------------------------------------------------------
# Program assembly (public classes only)
# ----------------------------------------------------------------------
def _install_tables(pipe: TaurusPipeline) -> None:
    """A small MAT stage either side of the ML block (Section 3.2): an
    exact-match service tag before it, a ternary safety override after it
    that drops ~1/256 of sources whatever the model said."""
    tag = MatchActionTable(
        name="service_tag", key_fields=("protocol", "dst_port"), kind=MatchKind.EXACT
    )
    for port in (80, 443):
        tag.install(
            TableEntry(
                {"protocol": 0, "dst_port": port}, Action.set_const("web", "seq", 1)
            )
        )
    deny = MatchActionTable(
        name="deny_prefix", key_fields=("src_ip",), kind=MatchKind.TERNARY
    )
    deny.install(
        TableEntry(
            {"src_ip": (0x0A000000, 0xFF000000)},
            Action.set_const("deny", "decision", DECISION_DROP),
        )
    )
    pipe.install_preprocess(tag)
    pipe.install_postprocess(deny)


def build_pipeline(inputs: Inputs) -> TaurusPipeline:
    """One single-app switch pipeline around a freshly compiled block: the
    ``TaurusDataPlane.run_switch`` shape, plus port bypass and MATs on the
    workload that stresses the stages around the block."""
    scalar_post, batch_post = threshold_postprocess(0.5)
    kwargs = {}
    if inputs.workload.bypass_ports:
        scalar_bypass, batch_bypass = port_bypass(inputs.workload.bypass_ports)
        kwargs = {
            "bypass_predicate": scalar_bypass,
            "bypass_predicate_batch": batch_bypass,
        }
    pipe = TaurusPipeline(
        block=MapReduceBlock(
            dnn_graph(inputs.quantized, name="anomaly_dnn", exact_activations=True)
        ),
        feature_names=DNN_FEATURES,
        postprocess=scalar_post,
        postprocess_batch=batch_post,
        **kwargs,
    )
    if inputs.workload.bypass_ports:
        _install_tables(pipe)
    return pipe


def build_apps(inputs: Inputs) -> list[FabricApp]:
    return [
        FabricApp.from_quantized_dnn(inputs.quantized, name=ANOMALY),
        FabricApp.from_lstm(
            inputs.lstm, window_steps=LSTM_CONFIG.window_steps, name=CONGESTION
        ),
    ]


def oracle_pipelines(inputs: Inputs) -> dict[str, TaurusPipeline]:
    """Fresh in-process single pipelines, one per app (the identity oracle)."""
    if not inputs.workload.multi_app:
        return {ANOMALY: build_pipeline(inputs)}
    return {
        app.name: app.build_pipeline(MapReduceBlock(app.graph))
        for app in build_apps(inputs)
    }


class Backend:
    """One stack configuration behind a uniform run / state surface.

    Wraps a :class:`ShardedRuntime` (single app) or a
    :class:`MultiAppFabric` (two apps) so phases and layers are written
    once; ``obj`` is what :class:`InferenceService` gets.
    """

    def __init__(self, inputs: Inputs, shards: int, pool: bool | str = False):
        self.inputs = inputs
        self.chunk = inputs.workload.chunk
        self.multi_app = inputs.workload.multi_app
        executor = "fork" if pool else "serial"
        #: Program swaps the last run modeled (two-app fabrics only).
        self.reconfigurations = 0
        if self.multi_app:
            self.obj = MultiAppFabric(
                build_apps(inputs),
                shards=shards,
                executor=executor,
                chunk_size=self.chunk,
                pool=pool,
            )
            # Lanes (and the lane pool) are built by the first run.
            self.run({})
        else:
            self.obj = ShardedRuntime(
                lambda shard: build_pipeline(inputs),
                shards=shards,
                executor=executor,
                chunk_size=self.chunk,
                pool=pool,
            )

    def run(self, traces: dict[str, TraceColumns]) -> dict:
        """``traces`` through the stack; one arrival-ordered result per app."""
        if not self.multi_app:
            return {
                ANOMALY: self.obj.process_trace(traces[ANOMALY], chunk_size=self.chunk)
            }
        empty = self.inputs.traces[ANOMALY].slice(slice(0, 0))
        outcome = self.obj.run(
            {app: traces.get(app, empty) for app in self.inputs.apps},
            chunk_size=self.chunk,
        )
        self.reconfigurations = outcome.reconfigurations
        return outcome.results

    def state(self) -> dict[str, dict]:
        if not self.multi_app:
            return {ANOMALY: self.obj.merged_state()}
        states = {app: self.obj.app_state(app) for app in self.inputs.apps}
        for state in states.values():
            # Known seed-commit discrepancy, left for a later PR (src/ is
            # out of scope here): a fabric run that hands an app an empty
            # trace - every service request does, for the other app -
            # resets that app's merged arbiter turn to 0.
            state.pop("arbiter_turn")
        return states

    @property
    def drain_ns(self) -> float:
        return float(self.obj.last_drain_ns)

    @property
    def health(self):
        return self.obj.pool_health

    def rewind(self) -> None:
        """Back to the pristine post-build state (pooled backends only)."""
        if self.multi_app:
            self.obj.reset_state()
        else:
            self.obj.rewind_state()

    def close(self) -> None:
        self.obj.close()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def client_specs(inputs: Inputs, depth: int) -> list[ClientSpec]:
    """One :class:`ClientSpec` per client; result buffers never drop."""
    return [
        ClientSpec(
            name=client,
            app=app if inputs.workload.multi_app else None,
            queue_depth=depth,
            result_depth=1 << 20,
        )
        for client, app in inputs.clients().items()
    ]
