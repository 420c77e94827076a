"""Surface census for the top level, the lane runtime, the switch model, the
testbed and the paper-side packages: every public name has a customer.

One row per name in ``repro.__all__`` (but the scanned packages' exports
it re-exports), ``repro.core.__all__``, ``repro.runtime.__all__``,
``service.__all__``, ``repro.pisa.__all__`` and ``pisa.scheduler.__all__``,
per ``__init__`` keyword of the runtime constructors and of
``TaurusPipeline``, and per field of their records — keyed ``Class.name``,
except the service's keywords and ``ClientSpec``'s fields.  A row is
``"<file>:<function> — why"``: the first non-test caller that needs the
name, or — where no such caller exists — the test that pins the case the
name is needed for.  New surface adds its row here in the change that adds
it; a name whose last customer goes, goes with it.

The paper-side packages and ``repro.testbed`` (``SCANNED``) are read by AST
scans of ``src/``, ``benchmarks/`` and ``examples/``; only what they cannot
place has a row.  An ``__all__`` name is placed when a module other than its
own and any ``__init__.py`` uses it; one that is not is deleted if only
tests run it, else it leaves its package's ``__all__``.  A public method,
property or dataclass field is placed when it is read as an attribute or
named in a string; a keyword with a default, when some call of that
callable's name passes it by name, reaches its position or unpacks a
``**`` mapping.  An unplaced member is deleted and an unplaced keyword
becomes a constant, unless a row keyed ``Class.member`` or
``function(keyword)`` names the test that needs it — and that test must
mention it.
"""

import ast
import dataclasses
import functools
import inspect
import math
import re
from pathlib import Path

import repro
from repro import apps, baselines, compiler, core, datasets, fixpoint, hw, mapreduce, ml
from repro import pisa, runtime, testbed
from repro.pisa import TaurusPipeline, scheduler
from repro.runtime import service
from repro.runtime.fabric import FabricApp, MultiAppFabric, MultiAppResult
from repro.runtime.service import ClientSpec, InferenceService
from repro.runtime.sharded import ShardedRuntime

REPO = Path(__file__).resolve().parents[1]

LEDGER_STACK = "benchmarks/ledger/workloads.py:__init__ — `Backend` builds every ledger stack"

CUSTOMERS = {
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
    # FabricApp fields
    "FabricApp.name": "benchmarks/ledger/workloads.py:oracle_pipelines — keys the oracle",
    "FabricApp.graph": "benchmarks/ledger/workloads.py:oracle_pipelines — the oracle's block",
    "FabricApp.feature_names": "src/repro/runtime/fabric.py:from_lstm — the "
                               "flattened window layout the pipeline parses",
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
    "FlowFeatureAccumulator": "src/repro/pisa/pipeline.py:_process_span — the "
                              "flow registers every span updates",
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
    # repro.testbed names the scan cannot place
    "EndToEndRow": "src/repro/testbed/experiment.py:run_row — its return type",
    "Arrival": "src/repro/testbed/producers.py:bursty_schedule — one per submit",
    "replay_virtual": "tests/test_serving.py:_run_schedule — only a virtual-time "
                      "replay makes the bursty accounting exact and repeatable",
    "ConvergencePoint": "src/repro/testbed/training.py:_point — one per weight update",
    "TrainingCostModel": "src/repro/testbed/training.py:run — prices each update",
    # paper-side names the scan cannot place
    "MapReduceControlBlock": "tests/test_mapreduce_dsl_ir.py:test_reduce_is_tree_ordered "
                             "— no shipped lowering is written in the DSL; a "
                             "non-associative body shows its reduce is a tree",
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
    # members and keywords the member scan cannot place
    "quantize_model(total_bits)": "tests/test_mapreduce_batch.py:test_dnn — fix16 "
                                  "through the DNN lowering; item 4(c) keeps the "
                                  "precision axis",
    "svm_graph(fmt)": "tests/test_mapreduce_batch.py:test_svm — the fix16 SVM",
    "kmeans_graph(fmt)": "tests/test_mapreduce_batch.py:test_kmeans — the fix16 KMeans",
    "lstm_graph(fmt)": "tests/test_mapreduce_batch.py:test_lstm_temporal — the fix16 LSTM",
    "TaurusChip.added_die_area_percent": "tests/test_hw.py:test_die_growth — the "
                                         "abstract's 3.8 % die growth, which no "
                                         "table prints yet",
}

SCANNED = (apps, baselines, compiler, datasets, fixpoint, hw, mapreduce, ml, testbed)
# ``MapReduceControlBlock.trace``'s type, which nothing else builds: covered
# by that class's row, as every name whose row names a test covers its own.
COVERED = {"PatternTrace"}


@functools.cache
def _trees() -> dict[Path, ast.Module]:
    """Every module of ``src/``, ``benchmarks/`` and ``examples/``, parsed."""
    return {path: ast.parse(path.read_text())
            for top in ("src", "benchmarks", "examples") for path in (REPO / top).rglob("*.py")}


def _names_in(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name the module's AST holds."""
    names = set()
    for node in ast.walk(tree):
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
    """``SCANNED`` exports that no module but their own names."""
    uses = {path: _names_in(tree) for path, tree in _trees().items()
            if path.name != "__init__.py"}
    unplaced = set()
    for package in SCANNED:
        homes = _homes(package)
        for name in package.__all__:
            if not any(name in names for path, names in uses.items()
                       if path != homes[name]):
                unplaced.add(name)
    return frozenset(unplaced)


def _defaults(function: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """``(keyword, position)`` per parameter with a default (keyword-only
    ones have none); ``skip`` drops ``self`` / ``cls`` from the count."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first] + [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
    ]


@functools.cache
def _scanned_surface() -> tuple[dict, dict]:
    """``SCANNED``'s public members (``Class.member`` -> name) and keywords
    with a default (``function(keyword)``, ``Class.method(keyword)`` or
    ``Class(keyword)`` -> ``(callee, keyword, position)``)."""
    members, keywords = {}, {}
    for package in SCANNED:
        for path in Path(package.__file__).parent.glob("*.py"):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.FunctionDef):
                    keywords |= {f"{node.name}({kw})": (node.name, kw, at)
                                 for kw, at in _defaults(node, 0)}
                if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                    continue
                dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        init, name = item.name == "__init__", item.name
                        callee = node.name if init else name
                        key = node.name if init else f"{node.name}.{name}"
                        static = "staticmethod" in map(ast.unparse, item.decorator_list)
                        keywords |= {f"{key}({kw})": (callee, kw, at)
                                     for kw, at in _defaults(item, not static)}
                    elif (dataclass and isinstance(item, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(item.annotation)):
                        name = item.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        members[f"{node.name}.{name}"] = name
    return members, keywords


@functools.cache
def _readers() -> tuple[set[str], dict[str, list]]:
    """The names ``_trees()`` read — loaded as an attribute or spelled as a
    (non-docstring) string; setting a field, by assignment or by keyword,
    does not read it — and, per callee name, each call's ``(positions,
    keyword names)``: ``*args`` reaches every position, a ``**`` mapping
    shows as the keyword ``None``, and ``cls(...)`` calls its class."""
    reads, calls = set(), {}
    for tree in _trees().values():
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        owners = {id(child): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                reads.add(node.value)
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                callee = owners.get(id(node), callee) if callee == "cls" else callee
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                calls.setdefault(callee, []).append((
                    math.inf if starred else len(node.args),
                    {keyword.arg for keyword in node.keywords},
                ))
    return reads, calls


@functools.cache
def _unplaced_members_and_keywords() -> frozenset[str]:
    """Members nothing reads and keywords no call sets, in ``SCANNED``.

    The scan is by name: a member shares its placement with every scanned
    class that defines the same name, so a read of one places them all."""
    members, keywords = _scanned_surface()
    reads, calls = _readers()
    covered = COVERED | {name for name in _unplaced_paper_side_names()
                         if CUSTOMERS.get(name, "").startswith("tests/")}
    unplaced = {key for key, name in members.items() if name not in reads} | {
        key for key, (callee, keyword, at) in keywords.items()
        if not any(keyword in names or None in names or (at is not None and n > at)
                   for n, names in calls.get(callee, ()))
    }
    return frozenset(key for key in unplaced if re.match(r"\w+", key)[0] not in covered)


def _keywords(cls) -> set[str]:
    return set(inspect.signature(cls.__init__).parameters) - {"self"}


def _fields(cls) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)}


def test_the_census_names_exactly_the_service_surface():
    constructors = (ShardedRuntime, MultiAppFabric, TaurusPipeline)
    records = (FabricApp, MultiAppResult)
    scanned = set().union(*(package.__all__ for package in SCANNED))
    assert CUSTOMERS.keys() == (
        set(repro.__all__) - scanned | set(core.__all__)
        | set(runtime.__all__) | set(service.__all__) | set(scheduler.__all__)
        | set(pisa.__all__)
        | _keywords(InferenceService) | _fields(ClientSpec)
        | {f"{cls.__name__}.{name}" for cls in constructors for name in _keywords(cls)}
        | {f"{cls.__name__}.{name}" for cls in records for name in _fields(cls)}
        | _unplaced_paper_side_names()
        | _unplaced_members_and_keywords()
    )


def test_every_paper_side_name_has_a_customer():
    """An export of ``SCANNED`` no other module uses needs a row, or it goes
    (see above)."""
    assert not _unplaced_paper_side_names() - CUSTOMERS.keys()


def test_every_member_and_keyword_has_a_customer():
    """A member nothing reads, or a keyword no call sets, needs a row or goes."""
    assert not _unplaced_members_and_keywords() - CUSTOMERS.keys()


def _row(name: str) -> tuple[str, str]:
    return re.match(r"([\w/.]+\.py):(\w+)", CUSTOMERS[name]).groups()


def test_every_customer_exists():
    for name in CUSTOMERS:
        path, function = _row(name)
        assert f"def {function}(" in (REPO / path).read_text(), name


def _mentions(path: str, function: str, word: str) -> bool:
    """Whether a ``def function`` of ``path``, decorators included, says ``word``."""
    source = (REPO / path).read_text()
    return any(
        re.search(rf"\b{word}\b", ast.get_source_segment(source, part))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
        for part in (*node.decorator_list, node)
    )


def test_every_member_and_keyword_row_names_a_test_that_uses_it():
    """A member or keyword row names a test that sets or reads it, so the row
    fails here, not silently, once that test stops needing it."""
    for key in _unplaced_members_and_keywords():
        path, function = _row(key)
        assert path.startswith("tests/"), key
        assert _mentions(path, function, re.search(r"(\w+)\)?$", key)[1]), key
