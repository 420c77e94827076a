"""Surface census for the top level, the lane runtime, the switch model, the
testbed and the paper-side packages: every public name has a customer.

One row per name in ``repro.__all__``, ``repro.core.__all__``,
``repro.runtime.__all__``, ``service.__all__``, ``repro.pisa.__all__``,
``pisa.scheduler.__all__`` and ``repro.testbed.__all__``, per ``__init__``
keyword of the runtime constructors, of ``MapReduceBlock``, of
``TaurusPipeline`` and of ``TaurusDataPlane``, and per field of their
records and of ``EndToEndExperiment`` — keyed
``Class.name``, except the service's keywords and ``ClientSpec``'s fields.  A row is
``"<file>:<function> — why"``: the first non-test caller that needs the
name, or — where no such caller exists — the test that pins the case the
name is needed for.  New surface adds its row here in the change that
adds it; a name whose last customer goes, goes with it.

The ``__all__`` of the paper-side packages (``PAPER_SIDE``) is read by an
AST scan: a name that a module of ``src/``, ``benchmarks/`` or ``examples/``
uses, other than its own module and any ``__init__.py``, is placed; only
the rest have rows.  A name with neither is deleted if only tests run it,
else it leaves its package's ``__all__``.
"""

import ast
import dataclasses
import functools
import inspect
import re
from pathlib import Path

import repro
from repro import apps, baselines, compiler, core, datasets, fixpoint, hw, mapreduce, ml
from repro import pisa, runtime, testbed
from repro.hw import MapReduceBlock
from repro.pisa import TaurusPipeline, scheduler
from repro.runtime import service
from repro.runtime.fabric import FabricApp, MultiAppFabric, MultiAppResult
from repro.runtime.service import ClientSpec, InferenceService
from repro.runtime.sharded import ShardedRuntime
from repro.testbed.dataplane import TaurusDataPlane
from repro.testbed.experiment import EndToEndExperiment

REPO = Path(__file__).resolve().parents[1]

LEDGER_STACK = "benchmarks/ledger/workloads.py:__init__ — `Backend` builds every ledger stack"

CUSTOMERS = {
    # repro.__all__ (TaurusPipeline and ShardedRuntime have their rows below)
    "AnomalyDetector": "examples/quickstart.py:main — the anomaly DNN end to end",
    "CongestionController": "examples/congestion_control.py:main — the Indigo LSTM",
    "IoTClassifier": "examples/iot_classification.py:main — the KMeans classifier",
    "FIX8": "src/repro/mapreduce/frontend.py:svm_graph — the block's default format",
    "FixTensor": "src/repro/fixpoint/quantize.py:quantize_model — a layer's nominal "
                 "weights and its bias",
    "quantize_model": "src/repro/testbed/experiment.py:build — the Table 8 model",
    "MapReduceBlock": "src/repro/testbed/dataplane.py:__init__ — one block per lane",
    "TaurusChip": "examples/iot_classification.py:main — the program's overheads",
    "DataflowGraph": "src/repro/mapreduce/frontend.py:dnn_graph — its return type",
    "MapReduceControlBlock": "tests/test_mapreduce_dsl_ir.py:test_reduce_is_tree_ordered "
                             "— no shipped lowering is written in the DSL; a "
                             "non-associative body shows its reduce is a tree",
    "dnn_graph": "src/repro/testbed/dataplane.py:__init__ — the exact-activation program",
    "kmeans_graph": "src/repro/apps/iot_classify.py:train — the IoT program",
    "lstm_graph": "src/repro/apps/congestion.py:train — the Indigo program",
    "svm_graph": "benchmarks/test_table5_applications.py:designs — Table 5's SVM row",
    # MapReduceBlock keywords
    "MapReduceBlock.graph": "src/repro/testbed/dataplane.py:__init__",
    # repro.core.__all__
    "render_table": "benchmarks/test_table5_applications.py:test_table5 — the table text",
    "series_to_text": "benchmarks/test_fig9_cu_sweep.py:test_fig9 — the Fig. 9a series",
    "write_result": "benchmarks/test_table5_applications.py:test_table5 — "
                    "`results/table5_applications.txt`",
    # repro.runtime.service.__all__ (all re-exported by repro.runtime)
    "ACCEPTED": "benchmarks/ledger/phases.py:submit_backlog — refuses a backlog "
                "submit whose verdict is not ACCEPTED (`Admission.accepted`)",
    "DEFERRED": "benchmarks/ledger/phases.py:serve_window — the serve summary's "
                "`deferred` count",
    "SHED": "benchmarks/ledger/phases.py:serve_window — the serve summary's `shed` count",
    "Admission": "src/repro/testbed/producers.py:replay_wall — one verdict per arrival",
    "ClientSpec": "benchmarks/ledger/workloads.py:client_specs — one per ledger client",
    "InferenceService": "benchmarks/ledger/phases.py:build_service — the served stack",
    "ServiceResult": "benchmarks/ledger/phases.py:drain_once — `seq`, `status` and "
                     "`result` of every served request",
    "ServiceStats": "benchmarks/ledger/phases.py:serve_window — the serve summary",
    "VirtualClock": "tests/test_serving.py:test_max_items_takes_the_globally_oldest_first "
                    "— bug: `take_results(max_items=)` handed out a newer result first; "
                    "only a clock that moves when told makes admission replayable",
    # InferenceService keywords
    "backend": "benchmarks/ledger/phases.py:build_service",
    "clients": "benchmarks/ledger/phases.py:build_service",
    "chunk_size": "benchmarks/ledger/phases.py:build_service — the workload's chunk",
    "clock": "benchmarks/ledger/loadgen.py:run_open_loop — schedules on `service.clock`",
    "own_backend": "benchmarks/ledger/phases.py:build_service — one backend, many services",
    # ClientSpec fields
    "name": "benchmarks/ledger/workloads.py:client_specs",
    "app": "benchmarks/ledger/workloads.py:client_specs — multiapp_c512's per-app clients",
    "queue_depth": "benchmarks/ledger/workloads.py:client_specs",
    "rate": "examples/quickstart.py:main — the rate-limited `scratch` tenant",
    "burst": "examples/quickstart.py:main — the rate-limited `scratch` tenant",
    "result_depth": "benchmarks/ledger/workloads.py:client_specs — buffers never drop",
    # the rest of repro.runtime.__all__
    "FabricApp": "benchmarks/ledger/workloads.py:build_apps — multiapp_c512's two apps",
    "FaultPlan": "tests/test_failure_injection.py:test_single_crash_identity — a "
                 "seeded worker kill or hang leaves the pooled run bit-identical",
    "MultiAppFabric": LEDGER_STACK + " for multiapp_c512",
    "MultiAppResult": "src/repro/testbed/dataplane.py:run_multi — its return type",
    "PipelineShardWorker": "benchmarks/ledger/layers.py:transport_probe — one "
                           "worker's transport, priced alone",
    "ShardPool": "benchmarks/ledger/layers.py:spawn_probe — the `pool.spawn_s` fork",
    "ShardedRuntime": LEDGER_STACK + " for the one-app workloads",
    "merge_pipeline_state": "benchmarks/ledger/verify.py:state — the oracle's state",
    # ShardedRuntime and MultiAppFabric keywords
    **{f"ShardedRuntime.{keyword}": LEDGER_STACK
       for keyword in ("pipeline_factory", "shards", "executor", "chunk_size", "pool")},
    "ShardedRuntime.pool_options": "tests/test_failure_injection.py:_pooled_runtime — "
                                   "how a `FaultPlan` and a fast watchdog reach "
                                   "the pool",
    **{f"MultiAppFabric.{keyword}": LEDGER_STACK
       for keyword in ("apps", "shards", "executor", "chunk_size", "pool")},
    # TaurusDataPlane keywords
    "TaurusDataPlane.quantized": "src/repro/testbed/experiment.py:build",
    "TaurusDataPlane.shards": "examples/quickstart.py:main — the 4-lane replay",
    # FabricApp fields
    "FabricApp.name": "benchmarks/ledger/workloads.py:oracle_pipelines — keys the oracle",
    "FabricApp.graph": "benchmarks/ledger/workloads.py:oracle_pipelines — the oracle's block",
    "FabricApp.feature_names": "src/repro/runtime/fabric.py:from_lstm — the "
                               "flattened window layout the pipeline parses",
    "FabricApp.slots": "tests/test_shard_runtime.py:app — an 8-slot register file "
                       "forces the hash-collision neighbours the slot-keyed "
                       "partition must keep on one lane",
    "FabricApp.postprocess": "benchmarks/ledger/verify.py:scalar_prefix_mismatches — "
                             "scalar `process` on the oracle's app pipelines",
    "FabricApp.postprocess_batch": "src/repro/runtime/fabric.py:from_lstm — the "
                                   "vectorized argmax decision",
    # MultiAppResult fields
    "MultiAppResult.results": "benchmarks/ledger/workloads.py:run — per-app results",
    "MultiAppResult.drain_ns": "examples/quickstart.py:main — shared grid vs two lanes",
    "MultiAppResult.reconfigurations": "benchmarks/ledger/workloads.py:run — "
                                       "hashed into `sim_digest`",
    "MultiAppResult.reconfig_ns": "tests/test_multi_app_fabric.py:"
                                  "test_single_lane_pays_for_program_switches",
    "MultiAppResult.n_packets": "tests/test_multi_app_fabric.py:"
                                "test_identical_to_each_app_alone — both traces",
    # repro.pisa.scheduler.__all__ (both re-exported by repro.pisa)
    "PacketQueue": "src/repro/pisa/pipeline.py:__post_init__ — the ML and bypass queues",
    "RoundRobinArbiter": "src/repro/pisa/pipeline.py:__post_init__ — Fig. 6's selector",
    # the rest of repro.pisa.__all__
    "MAX_OPS_PER_STAGE": "src/repro/pisa/actions.py:__post_init__ — the VLIW issue "
                         "width an `Action` is held to",
    "Action": "benchmarks/ledger/workloads.py:_install_tables — the tag and deny actions",
    "Primitive": "src/repro/pisa/actions.py:set_const — the one slot of a constant write",
    "MatchActionTable": "benchmarks/ledger/workloads.py:_install_tables — bypass_c512's MATs",
    "MatchKind": "benchmarks/ledger/workloads.py:_install_tables — exact tag, ternary deny",
    "TableEntry": "benchmarks/ledger/workloads.py:_install_tables — one rule per port / prefix",
    "Packet": "src/repro/pisa/packet.py:from_record — the scalar oracle's input",
    "from_record": "benchmarks/ledger/verify.py:scalar_prefix_mismatches — one packet "
                   "per trace record for scalar `process`",
    "Parser": "src/repro/pisa/pipeline.py:__post_init__ — the pipeline's parse graph",
    "ParseState": "src/repro/pisa/parser.py:default_parser — the Ethernet/IP/L4 states",
    "default_layout": "src/repro/pisa/pipeline.py:__post_init__ — the PHV layout",
    "default_parser": "src/repro/pisa/pipeline.py:__post_init__",
    "PHV": "src/repro/pisa/pipeline.py:process — the scalar oracle's header vector",
    "PHVBatch": "src/repro/pisa/parser.py:parse_batch — what a chunk parses into",
    "PHVLayout": "src/repro/pisa/parser.py:default_layout — headers plus feature region",
    "DECISION_DROP": "benchmarks/ledger/workloads.py:_install_tables — the deny override",
    "DECISION_FLAG": "src/repro/testbed/dataplane.py:detection_from_outcome — flagged "
                     "packets are the detections",
    "DECISION_FORWARD": "src/repro/pisa/pipeline.py:threshold_postprocess — below threshold",
    "DEFAULT_TRACE_CHUNK": "src/repro/runtime/sharded.py:__init__ — the default chunk",
    "PipelineResult": "src/repro/pisa/pipeline.py:process — the scalar oracle's return type",
    "TaurusPipeline": "benchmarks/ledger/workloads.py:build_pipeline — the one-app switch",
    "TracePipelineResult": "src/repro/runtime/sharded.py:concat_results — a lane's "
                           "per-request result",
    "port_bypass": "benchmarks/ledger/workloads.py:build_pipeline — bypass_c512's ports",
    "threshold_postprocess": "benchmarks/ledger/workloads.py:build_pipeline",
    "FlowFeatureAccumulator": "src/repro/runtime/fabric.py:build_pipeline — a "
                              "`FabricApp.slots`-sized register file",
    "RegisterArray": "src/repro/pisa/registers.py:__post_init__ — the four flow registers",
    "fnv1a_columns": "src/repro/datasets/packets.py:flow_hashes — one hash per packet",
    # TaurusPipeline keywords
    **{f"TaurusPipeline.{keyword}": "benchmarks/ledger/workloads.py:build_pipeline"
       for keyword in ("block", "feature_names", "postprocess", "postprocess_batch")},
    **{f"TaurusPipeline.{keyword}": "benchmarks/ledger/workloads.py:build_pipeline — "
       "bypass_c512's port bypass pair" for keyword in ("bypass_predicate",
                                                        "bypass_predicate_batch")},
    "TaurusPipeline.program": "src/repro/runtime/fabric.py:build_pipeline — steers the "
                              "shared block to the app's program",
    "TaurusPipeline.accumulator": "src/repro/runtime/fabric.py:build_pipeline — "
                                  "`FabricApp.slots`",
    # repro.testbed.__all__
    "BaselineResult": "src/repro/testbed/control.py:run — its return type",
    "ControlPlaneBaseline": "src/repro/testbed/experiment.py:run_row — Table 8's left "
                            "columns",
    "StageLatencies": "src/repro/testbed/control.py:run — prices each server batch",
    "DataPlaneResult": "src/repro/testbed/dataplane.py:detection_from_outcome — its "
                       "return type",
    "TaurusDataPlane": "src/repro/testbed/experiment.py:build — Table 8's Taurus side",
    "DEFAULT_SAMPLING_RATES": "examples/anomaly_detection.py:main — the Table 8 sweep",
    "EndToEndExperiment": "examples/anomaly_detection.py:main — the Table 8 testbed",
    "EndToEndRow": "src/repro/testbed/experiment.py:run_row — its return type",
    "format_table8": "examples/anomaly_detection.py:main — prints the rows",
    "Arrival": "src/repro/testbed/producers.py:bursty_schedule — one per submit",
    "bursty_schedule": "benchmarks/ledger/loadgen.py:frozen_schedule — the open-loop "
                       "arrivals",
    "chunk_columns": "benchmarks/ledger/workloads.py:client_chunks — request-sized "
                     "chunks per client",
    "replay_virtual": "tests/test_serving.py:_run_schedule — only a virtual-time "
                      "replay makes the bursty accounting exact and repeatable",
    "replay_wall": "examples/quickstart.py:main — the bursty two-tenant serve",
    "Workload": "src/repro/testbed/traffic.py:build_workload — its return type",
    "build_workload": "src/repro/testbed/experiment.py:build",
    "ConvergencePoint": "src/repro/testbed/training.py:_point — one per weight update",
    "OnlineTrainer": "benchmarks/test_fig13_online_training.py:test_fig13 — the "
                     "Fig. 13 convergence curves",
    "TrainingCostModel": "src/repro/testbed/training.py:run — prices each update",
    # EndToEndExperiment fields
    "EndToEndExperiment.workload": "src/repro/testbed/experiment.py:build",
    "EndToEndExperiment.model": "src/repro/testbed/experiment.py:run_row — the "
                                "baseline's float model",
    "EndToEndExperiment.dataplane": "src/repro/testbed/experiment.py:taurus_result — "
                                    "the one Taurus pass",
    "EndToEndExperiment.stages": "src/repro/testbed/experiment.py:run_row — the "
                                 "baseline's per-stage costs",
    "EndToEndExperiment.seed": "src/repro/testbed/experiment.py:run_row — seeds the "
                               "baseline's telemetry sampling",
    "EndToEndExperiment._taurus": "src/repro/testbed/experiment.py:taurus_result — "
                                  "the pass cached across the sweep",
    # paper-side names the scan cannot place (MapReduceControlBlock: above)
    "AppRequirement": "src/repro/apps/registry.py:meets_requirement — the Table 1 "
                      "row it checks",
    "GPU_T4": "tests/test_baselines.py:test_batch1_latency — Table 2's T4, 1.15 ms",
    "TPU_V2": "tests/test_baselines.py:test_batch1_latency — Table 2's TPU, 3.51 ms",
    "MatCost": "src/repro/baselines/mat_ml.py:iisy_mat_cost — its return type",
    "BudgetError": "src/repro/compiler/pipeline.py:compile_graph — the typed "
                   "overflow it raises, for `place_and_route` too",
    "NodeCost": "src/repro/compiler/allocate.py:node_cost — its return type",
    "node_cost": "tests/test_compiler.py:test_dot_single_cu — a CU dot is one map "
                 "cycle plus a four-cycle reduce tree (Section 5.1.3), the rule "
                 "every Table 5-7 latency rests on",
    "GridSpec": "src/repro/compiler/place_route.py:place_and_route — the 12x10, "
                "3:1 grid it places on",
    "Placement": "src/repro/compiler/place_route.py:place_and_route — its return type",
    "UnrollPoint": "src/repro/compiler/unroll.py:unroll_sweep — one per factor",
    "iot_packet_trace": "tests/test_multi_app_fabric.py:"
                        "test_from_kmeans_builds_serving_app — the IoT app's packet "
                        "stream; it and `FabricApp.from_kmeans` are decided together",
    "FIX16": "tests/test_fixpoint_formats.py:test_resolution — Table 4's fix16 point",
    "FIX32": "tests/test_fixpoint_formats.py:test_resolution — Table 4's fix32 point",
    "QuantizedLinear": "src/repro/fixpoint/quantize.py:quantize_model — one per layer",
    "OverheadReport": "src/repro/hw/asic.py:design_overheads — its return type",
    "InferenceResult": "src/repro/hw/grid.py:process — its return type",
    "BatchInferenceResult": "src/repro/hw/grid.py:run_batch — its return type",
    "PatternTrace": "src/repro/mapreduce/dsl.py:__init__ — a control block's `trace`",
    "ReduceOp": "src/repro/mapreduce/ir.py:_run_node — a named reduce runs its "
                "`REDUCE_OPS` entry",
    "ActivationSpec": "src/repro/mapreduce/frontend.py:_hw_activation_fn — the "
                      "`ACTIVATIONS` entry whose `chain_ops` prices the activation",
}

PAPER_SIDE = (apps, baselines, compiler, datasets, fixpoint, hw, mapreduce, ml)


def _names_in(path: Path) -> set[str]:
    """Every name, attribute and imported name the module's AST holds."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _homes(package) -> dict[str, Path]:
    """Each name the package's ``__init__`` imports -> its defining module."""
    init = Path(package.__file__).resolve()
    return {
        alias.asname or alias.name: init.parent / f"{node.module.replace('.', '/')}.py"
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


@functools.cache
def _unplaced_paper_side_names() -> frozenset[str]:
    """Paper-side exports that no module but their own names."""
    uses = {
        path: _names_in(path)
        for top in ("src", "benchmarks", "examples")
        for path in (REPO / top).rglob("*.py")
        if path.name != "__init__.py"
    }
    unplaced = set()
    for package in PAPER_SIDE:
        homes = _homes(package)
        for name in package.__all__:
            if not any(name in names for path, names in uses.items()
                       if path != homes[name]):
                unplaced.add(name)
    return frozenset(unplaced)


def _keywords(cls) -> set[str]:
    return set(inspect.signature(cls.__init__).parameters) - {"self"}


def _fields(cls) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)}


def test_the_census_names_exactly_the_service_surface():
    constructors = (
        ShardedRuntime, MultiAppFabric, MapReduceBlock, TaurusDataPlane, TaurusPipeline
    )
    records = (FabricApp, MultiAppResult, EndToEndExperiment)
    assert CUSTOMERS.keys() == (
        set(repro.__all__) | set(core.__all__)
        | set(runtime.__all__) | set(service.__all__) | set(scheduler.__all__)
        | set(pisa.__all__) | set(testbed.__all__)
        | _keywords(InferenceService) | _fields(ClientSpec)
        | {f"{cls.__name__}.{name}" for cls in constructors for name in _keywords(cls)}
        | {f"{cls.__name__}.{name}" for cls in records for name in _fields(cls)}
        | _unplaced_paper_side_names()
    )


def test_every_paper_side_name_has_a_customer():
    """An export no other module uses needs a row, or it goes (see above)."""
    assert not _unplaced_paper_side_names() - CUSTOMERS.keys()


def test_every_customer_exists():
    for name, customer in CUSTOMERS.items():
        path, function = re.match(r"([\w/.]+\.py):(\w+)", customer).groups()
        assert f"def {function}(" in (REPO / path).read_text(), name
