"""Tests for ``repro.analysis``: trigger + clean fixtures per check.

Every check in the catalog gets (a) a fixture that provokes exactly that
finding and (b) a clean variant the check stays silent on.  A property
test closes the loop: random verifier-clean graphs execute through both
interpreter paths without error, while seeded defect classes are caught
statically.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CHECKS,
    TOP,
    Interval,
    Severity,
    analyze_ranges,
    lint_source,
    verify_fabric,
    verify_graph,
    worst_severity,
)
from repro.core import TaurusConfig
from repro.fixpoint import FIX8, FIX16, FIX32
from repro.mapreduce import DataflowGraph

CFG = TaurusConfig()


def _ids(diags):
    return {d.check_id for d in diags}


def _verify(graph, **kwargs):
    kwargs.setdefault("config", CFG)
    return verify_graph(graph, **kwargs)


def _rt(x):
    return FIX8.roundtrip(x)


def _chain_graph(width=4, name="g"):
    """input -> map(roundtrip) -> output: the minimal clean graph."""
    g = DataflowGraph(name=name)
    inp = g.add("input", name="x", width=width)
    m = g.add("map", preds=[inp], name="m", width=width, chain_ops=1,
              fn=_rt, batch_fn=_rt)
    g.add("output", preds=[m], name="y", width=width)
    return g


def _stateful(key):
    """A state-writing fn whose key is a bytecode literal.

    The verifier recovers state keys from ``LOAD_CONST`` + ``STORE_SUBSCR``
    pairs, so the key must be a literal in the code object — a closure
    variable would be invisible to the scan (by design: it is not a
    statically known key).
    """
    ns = {}
    exec(  # noqa: S102 - building a fixture, key is a test literal
        "def fn(x, state=None):\n"
        f"    state[{key!r}] = x\n"
        "    return x\n",
        ns,
    )
    fn = ns["fn"]
    fn.wants_state = True
    return fn


def _heavy_graph(weight_values):
    """input -> dot(const weights) -> output, with a sized weight bank."""
    g = DataflowGraph(name="heavy")
    inp = g.add("input", name="x", width=4)
    bank = g.add("const", name="w", weight_values=weight_values)
    d = g.add("dot", preds=[inp, bank], name="d", parallel=1, width=4,
              chain_ops=1, reduce_op="sum",
              fn=lambda x: np.sum(x, axis=-1, keepdims=True),
              batch_fn=lambda x: np.sum(x, axis=-1, keepdims=True))
    g.add("output", preds=[d], name="y", width=1)
    return g


class TestCatalog:
    def test_every_check_has_spec(self):
        for check_id, spec in CHECKS.items():
            assert spec.check_id == check_id
            assert spec.category in (
                "shape", "structure", "budget", "fabric", "fork-safety",
                "range", "concurrency",
            )
            assert spec.summary

    def test_catalog_spans_required_categories(self):
        assert len(CHECKS) >= 8
        categories = {spec.category for spec in CHECKS.values()}
        assert {
            "shape", "structure", "budget", "fork-safety", "range",
            "concurrency",
        } <= categories

    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert str(Severity.WARNING) == "warning"

    def test_worst_severity(self):
        assert worst_severity([]) is None
        g = _chain_graph()
        g.nodes[1].fn = g.nodes[1].batch_fn = lambda x: np.asarray(x) + 1e-4
        assert worst_severity(_verify(g)) == Severity.WARNING

    def test_diagnostic_format_has_provenance(self):
        g = _chain_graph(name="fmt")
        g.nodes[1].fn = g.nodes[1].batch_fn = None
        diag = next(
            d for d in _verify(g, probe=False)
            if d.check_id == "ir-no-semantics"
        )
        text = diag.format()
        assert "fmt" in text and "[ir-no-semantics]" in text
        assert "error" in text


class TestCleanGraph:
    def test_chain_graph_is_clean(self):
        assert _verify(_chain_graph()) == []

    def test_suppress_drops_findings(self):
        g = _chain_graph()
        g.add("map", preds=[g.nodes[1]], name="dead", width=4, chain_ops=1,
              fn=_rt, batch_fn=_rt)
        assert "ir-dead-node" in _ids(_verify(g))
        assert "ir-dead-node" not in _ids(
            _verify(g, suppress={"ir-dead-node"})
        )


class TestStructureChecks:
    def test_cycle_trigger(self):
        g = _chain_graph()
        g.nodes[1].preds.append(2)  # map also consumes the output
        assert _ids(_verify(g)) == {"ir-cycle"}  # everything else skipped

    def test_malformed_io_input_with_preds(self):
        g = _chain_graph()
        extra = g.add("input", name="x2", width=4)
        extra.preds.append(0)
        assert "ir-malformed-io" in _ids(_verify(g, probe=False))

    def test_malformed_io_dangling_pred(self):
        g = _chain_graph()
        g.nodes[1].preds.append(99)
        assert "ir-malformed-io" in _ids(_verify(g))

    def test_malformed_io_output_feeds_onward(self):
        g = _chain_graph()
        g.add("map", preds=[g.nodes[2]], name="after", width=4,
              chain_ops=1, fn=_rt, batch_fn=_rt)
        assert "ir-malformed-io" in _ids(_verify(g))

    def test_no_output_trigger(self):
        g = DataflowGraph(name="g")
        g.add("input", name="x", width=4)
        assert "ir-no-output" in _ids(_verify(g))

    def test_multi_output_trigger(self):
        g = _chain_graph()
        g.add("output", preds=[g.nodes[1]], name="y2", width=4)
        diags = _verify(g)
        assert "ir-multi-output" in _ids(diags)
        assert worst_severity(diags) == Severity.WARNING

    def test_orphan_trigger(self):
        g = _chain_graph()
        g.nodes[1].preds.clear()
        assert "ir-orphan" in _ids(_verify(g))

    def test_unreachable_trigger(self):
        g = _chain_graph()
        bank = g.add("const", name="w", weight_values=4)
        fromconst = g.add("map", preds=[bank], name="c2", width=4,
                          chain_ops=1, fn=_rt, batch_fn=_rt)
        g.nodes[2].preds.append(fromconst.node_id)
        assert "ir-unreachable" in _ids(_verify(g, probe=False))

    def test_dead_node_trigger(self):
        g = _chain_graph()
        g.add("map", preds=[g.nodes[0]], name="dead", width=4, chain_ops=1,
              fn=_rt, batch_fn=_rt)
        assert "ir-dead-node" in _ids(_verify(g))

    def test_const_is_neither_unreachable_nor_dead(self):
        assert _verify(_heavy_graph(weight_values=4)) == []

    def test_state_collision_trigger(self):
        g = DataflowGraph(name="g", temporal_iterations=2)
        inp = g.add("input", name="x", width=4)
        fa, fb = _stateful("h"), _stateful("h")
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=fa, batch_fn=fa)
        b = g.add("map", preds=[a], name="b", width=4, chain_ops=1,
                  fn=fb, batch_fn=fb)
        g.add("output", preds=[b], name="y", width=4)
        assert "ir-state-collision" in _ids(_verify(g, probe=False))

    def test_reserved_state_key_trigger(self):
        g = DataflowGraph(name="g", temporal_iterations=2)
        inp = g.add("input", name="x", width=4)
        fn = _stateful("iteration")
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=fn, batch_fn=fn)
        g.add("output", preds=[a], name="y", width=4)
        assert "ir-state-collision" in _ids(_verify(g, probe=False))

    def test_distinct_state_keys_clean(self):
        g = DataflowGraph(name="g", temporal_iterations=2)
        inp = g.add("input", name="x", width=4)
        fa, fb = _stateful("h"), _stateful("c")
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=fa, batch_fn=fa)
        b = g.add("map", preds=[a], name="b", width=4, chain_ops=1,
                  fn=fb, batch_fn=fb)
        g.add("output", preds=[b], name="y", width=4)
        assert "ir-state-collision" not in _ids(_verify(g, probe=False))

    def test_epilogue_order_trigger(self):
        g = _chain_graph()
        g.temporal_iterations = 2
        g.nodes[1].epilogue = True  # map is epilogue, its consumer is not
        assert "ir-epilogue-order" in _ids(_verify(g, probe=False))

    def test_epilogue_io_trigger(self):
        g = _chain_graph()
        g.temporal_iterations = 2
        for nid in (0, 1, 2):
            g.nodes[nid].epilogue = True
        assert "ir-epilogue-io" in _ids(_verify(g, probe=False))

    def test_epilogue_inert_trigger(self):
        g = _chain_graph()
        for nid in (1, 2):
            g.nodes[nid].epilogue = True
        diags = _verify(g, probe=False)
        inert = [d for d in diags if d.check_id == "ir-epilogue-inert"]
        assert inert and all(d.severity == Severity.INFO for d in inert)

    def test_temporal_no_state_trigger(self):
        g = _chain_graph()
        g.temporal_iterations = 3
        assert "ir-temporal-no-state" in _ids(_verify(g, probe=False))

    def test_lstm_epilogue_and_state_clean(self):
        """The LSTM exercises epilogue + temporal + state — all clean."""
        from repro.mapreduce import lstm_graph
        from repro.ml import indigo_lstm

        diags = _verify(lstm_graph(indigo_lstm(seed=0)))
        assert worst_severity(diags) in (None, Severity.INFO)


class TestShapeChecks:
    def test_width_mismatch_dot_trigger(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        d = g.add("dot", preds=[inp], name="d", parallel=1, width=8,
                  chain_ops=1, reduce_op="sum",
                  fn=lambda x: np.sum(x, axis=-1, keepdims=True),
                  batch_fn=lambda x: np.sum(x, axis=-1, keepdims=True))
        g.add("output", preds=[d], name="y", width=1)
        assert "ir-width-mismatch" in _ids(_verify(g, probe=False))

    def test_width_mismatch_output_trigger(self):
        g = _chain_graph()
        g.nodes[2].width = 2  # output claims 2, map produces 4
        assert "ir-width-mismatch" in _ids(_verify(g, probe=False))

    def test_width_mismatch_reduce_trigger(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        r = g.add("reduce", preds=[inp], name="r", width=7, reduce_op="sum")
        g.add("output", preds=[r], name="y", width=1)
        assert "ir-width-mismatch" in _ids(_verify(g, probe=False))

    def test_gather_width_trigger(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=_rt, batch_fn=_rt)
        b = g.add("map", preds=[inp], name="b", width=4, chain_ops=1,
                  fn=_rt, batch_fn=_rt)
        gt = g.add("gather", preds=[a, b], name="gt", width=5)  # != 8
        g.add("output", preds=[gt], name="y", width=5)
        assert "ir-gather-width" in _ids(_verify(g, probe=False))

    def test_gather_width_clean(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=_rt, batch_fn=_rt)
        b = g.add("map", preds=[inp], name="b", width=4, chain_ops=1,
                  fn=_rt, batch_fn=_rt)
        gt = g.add("gather", preds=[a, b], name="gt", width=8)
        g.add("output", preds=[gt], name="y", width=8)
        assert _verify(g) == []

    def test_map_may_slice_its_input(self):
        """conv-style window extraction: width-4 input, width-2 map."""
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        m = g.add("map", preds=[inp], name="w", width=2, chain_ops=1,
                  fn=lambda x: np.asarray(x)[..., :2],
                  batch_fn=lambda x: np.asarray(x)[..., :2])
        g.add("output", preds=[m], name="y", width=2)
        assert _verify(g) == []

    def test_no_semantics_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = g.nodes[1].batch_fn = None
        assert "ir-no-semantics" in _ids(_verify(g, probe=False))

    def test_reduce_op_counts_as_semantics(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        r = g.add("reduce", preds=[inp], name="r", width=4, reduce_op="sum")
        g.add("output", preds=[r], name="y", width=1)
        assert "ir-no-semantics" not in _ids(_verify(g))

    def test_unknown_reduce_op_has_no_semantics(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        r = g.add("reduce", preds=[inp], name="r", width=4,
                  reduce_op="median")
        g.add("output", preds=[r], name="y", width=1)
        assert "ir-no-semantics" in _ids(_verify(g, probe=False))


class TestProbeChecks:
    def test_non_2d_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = lambda x: np.asarray(x)
        g.nodes[1].batch_fn = lambda x: np.asarray(x)[:, :, None]  # 3-D
        assert "ir-non-2d" in _ids(_verify(g))

    def test_probe_width_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = lambda x: np.asarray(x)[..., :2]
        g.nodes[1].batch_fn = lambda x: np.asarray(x)[..., :2]
        assert "ir-probe-width" in _ids(_verify(g))  # declares 4, emits 2

    def test_batch_divergence_trigger(self):
        g = _chain_graph()
        g.nodes[1].batch_fn = lambda x: _rt(x) + 0.0625  # one LSB off
        assert "ir-batch-divergence" in _ids(_verify(g))

    def test_fixpoint_drift_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = g.nodes[1].batch_fn = lambda x: np.asarray(x) + 1e-4
        diags = _verify(g)
        assert "ir-fixpoint-drift" in _ids(diags)
        assert worst_severity(diags) == Severity.WARNING

    def test_probe_failure_trigger(self):
        def boom(x):
            raise RuntimeError("kaput")

        g = _chain_graph()
        g.nodes[1].fn = g.nodes[1].batch_fn = boom
        assert "ir-probe-failure" in _ids(_verify(g))

    def test_probe_skipped_on_structural_errors(self):
        def boom(x):
            raise RuntimeError("kaput")

        g = _chain_graph()
        g.nodes[1].fn = g.nodes[1].batch_fn = boom
        g.nodes[1].preds.append(99)  # structural error disables the probe
        assert "ir-probe-failure" not in _ids(_verify(g))

    def test_probe_flag_disables(self):
        def boom(x):
            raise RuntimeError("kaput")

        g = _chain_graph()
        g.nodes[1].fn = g.nodes[1].batch_fn = boom
        assert "ir-probe-failure" not in _ids(_verify(g, probe=False))


class TestKernelProbe:
    """The probe must see a compiled kernel that drifts from its nodes even
    when the graph's output (the LSTM's argmax) hides the error."""

    @staticmethod
    def _lstm_with(mutate):
        from repro.mapreduce import lstm_graph
        from repro.ml import indigo_lstm

        graph = lstm_graph(indigo_lstm(seed=0))
        compiled = graph.kernel

        def kernel(features, state):
            return mutate(features, compiled(features, state), state)

        graph.kernel = kernel
        return graph

    @staticmethod
    def _divergences(graph):
        return [d for d in _verify(graph) if d.check_id == "ir-batch-divergence"]

    def test_faithful_kernel_is_clean(self):
        assert not self._divergences(self._lstm_with(lambda f, out, state: out))

    def test_one_raw_unit_in_hidden_state_is_seen(self):
        def mutate(features, out, state):
            state["h"][0, 0] += FIX8.resolution  # the action does not move
            return out

        (diag,) = self._divergences(self._lstm_with(mutate))
        assert "state['h']" in diag.message and "the output" not in diag.message

    def test_error_confined_to_a_later_tile_is_seen(self):
        def mutate(features, out, state):
            out[400:] = (out[400:] + 1) % 5
            return out

        (diag,) = self._divergences(self._lstm_with(mutate))
        assert "the output" in diag.message

    def test_mishandled_non_finite_input_is_seen(self):
        def mutate(features, out, state):
            state["c"][~np.isfinite(features).all(axis=1)] = 0.0
            return out

        (diag,) = self._divergences(self._lstm_with(mutate))
        assert "state['c']" in diag.message

    def test_missing_state_entry_is_seen(self):
        def mutate(features, out, state):
            del state["c"]
            return out

        (diag,) = self._divergences(self._lstm_with(mutate))
        assert "state['c']" in diag.message


class TestBudgetChecks:
    def test_mu_overflow_trigger(self):
        diags = _verify(_heavy_graph(16384 * (CFG.n_mus + 10)), probe=False)
        assert "budget-mu-overflow" in _ids(diags)
        assert worst_severity(diags) == Severity.ERROR

    def test_mu_within_budget_clean(self):
        diags = _verify(_heavy_graph(16384 * 2), probe=False)
        assert "budget-mu-overflow" not in _ids(diags)

    def test_cu_fold_and_line_rate_trigger(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        m = g.add("map", preds=[inp], name="wide", width=4, chain_ops=1,
                  parallel=4 * CFG.n_cus, fn=_rt, batch_fn=_rt)
        g.add("output", preds=[m], name="y", width=4)
        diags = _verify(g, probe=False)
        assert {"budget-cu-fold", "budget-line-rate"} <= _ids(diags)
        assert worst_severity(diags) == Severity.INFO  # advisory only

    def test_config_stream_trigger(self):
        assert "budget-config-stream" in _ids(
            _verify(_heavy_graph(70_000), probe=False)
        )

    def test_budgets_skipped_without_config(self):
        diags = verify_graph(
            _heavy_graph(16384 * (CFG.n_mus + 10)), probe=False
        )
        assert not any(d.check_id.startswith("budget-") for d in diags)


class _App:
    """Duck-typed FabricApp stand-in (name + graph is the contract)."""

    def __init__(self, name, graph):
        self.name = name
        self.graph = graph


class TestFabricChecks:
    def test_duplicate_app_trigger(self):
        apps = [_App("a", _chain_graph()), _App("a", _chain_graph())]
        assert "fabric-duplicate-app" in _ids(verify_fabric(apps))

    def test_distinct_apps_clean(self):
        apps = [_App("a", _chain_graph()), _App("b", _chain_graph())]
        assert verify_fabric(apps, config=CFG) == []

    def test_state_overlap_trigger(self):
        def build():
            g = DataflowGraph(name="g", temporal_iterations=2)
            inp = g.add("input", name="x", width=4)
            fn = _stateful("h")
            m = g.add("map", preds=[inp], name="m", width=4, chain_ops=1,
                      fn=fn, batch_fn=fn)
            g.add("output", preds=[m], name="y", width=4)
            return g

        diags = verify_fabric([_App("a", build()), _App("b", build())])
        overlap = [d for d in diags if d.check_id == "fabric-state-overlap"]
        assert overlap and all(d.severity == Severity.INFO for d in overlap)

    def test_mu_residency_trigger(self):
        per_app = 16384 * (CFG.n_mus // 2 + 3)  # 2 apps -> over budget
        apps = [
            _App("a", _heavy_graph(per_app)),
            _App("b", _heavy_graph(per_app)),
        ]
        assert "fabric-mu-residency" in _ids(verify_fabric(apps, config=CFG))


FORK_CLEAN = '''
import os
import sys


def spawn():
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as sink:
            sink.write(b"x")
        os._exit(0)
    os.close(write_fd)
    return os.fdopen(read_fd, "rb")


def close(self):
    self._thread.join(timeout=5.0)
'''


class TestForkLint:
    def test_clean_source(self):
        assert lint_source(FORK_CLEAN, "clean.py") == []

    def test_fork_flush_trigger(self):
        src = "import os\ndef f():\n    pid = os.fork()\n    os._exit(0)\n"
        assert "rt-fork-flush" in _ids(lint_source(src))

    def test_fork_child_exit_trigger(self):
        src = (
            "import os, sys\n"
            "def f():\n"
            "    sys.stdout.flush()\n"
            "    pid = os.fork()\n"
        )
        assert "rt-fork-child-exit" in _ids(lint_source(src))

    def test_pipe_ownership_trigger(self):
        src = (
            "import os, sys\n"
            "def f():\n"
            "    r, w = os.pipe()\n"
            "    sys.stdout.flush()\n"
            "    pid = os.fork()\n"
            "    os._exit(0)\n"
        )
        assert "rt-pipe-ownership" in _ids(lint_source(src))

    def test_pipe_fdopen_counts_as_ownership(self):
        src = (
            "import os\n"
            "def f():\n"
            "    r, w = os.pipe()\n"
            "    os.close(w)\n"
            "    return os.fdopen(r, 'rb')\n"
        )
        assert lint_source(src) == []

    def test_unbounded_close_join_trigger(self):
        src = "def close(self):\n    self._t.join()\n"
        diags = lint_source(src)
        assert _ids(diags) == {"rt-unbounded-close-join"}
        assert diags[0].severity == Severity.WARNING

    def test_bounded_join_clean(self):
        src = "def close(self):\n    self._t.join(timeout=1.0)\n"
        assert lint_source(src) == []

    def test_join_outside_close_path_flagged(self):
        # An untimed join outside a close path can park a supervision
        # loop forever on a stuck worker; it must be bounded.
        src = "def collect(self):\n    self._t.join()\n"
        diags = lint_source(src)
        assert _ids(diags) == {"rt-unbounded-recv"}
        assert diags[0].severity == Severity.WARNING

    def test_bounded_join_outside_close_path_clean(self):
        src = "def collect(self):\n    self._t.join(1.0)\n"
        assert lint_source(src) == []

    def test_unbounded_recv_trigger(self):
        src = "def collect(self):\n    return self.worker.recv()\n"
        assert _ids(lint_source(src)) == {"rt-unbounded-recv"}

    def test_unbounded_recv_flagged_even_on_close_path(self):
        # recv() has no close-path exemption: a dead worker never
        # answers, whatever phase the caller is in.
        src = "def close(self):\n    return self.worker.recv()\n"
        assert "rt-unbounded-recv" in _ids(lint_source(src))

    def test_bounded_recv_clean(self):
        src = "def collect(self):\n    return self.worker.recv(30.0)\n"
        assert lint_source(src) == []

    def test_recv_keyword_timeout_clean(self):
        src = (
            "def collect(self):\n"
            "    return self.worker.recv(hang_timeout=30.0)\n"
        )
        assert lint_source(src) == []

    def test_string_join_not_flagged(self):
        src = "def close(self):\n    return ', '.join(['a'])\n"
        assert lint_source(src) == []

    def test_fork_under_lock_with_trigger(self):
        src = (
            "import os, sys\n"
            "def f(lock):\n"
            "    sys.stdout.flush()\n"
            "    with lock:\n"
            "        pid = os.fork()\n"
            "    os._exit(0)\n"
        )
        assert "rt-fork-under-lock" in _ids(lint_source(src))

    def test_fork_under_acquire_trigger(self):
        src = (
            "import os, sys\n"
            "def f(mutex):\n"
            "    sys.stdout.flush()\n"
            "    mutex.acquire()\n"
            "    pid = os.fork()\n"
            "    os._exit(0)\n"
        )
        assert "rt-fork-under-lock" in _ids(lint_source(src))

    def test_noqa_listed_suppression(self):
        src = (
            "import os, sys\n"
            "def f():\n"
            "    r, w = os.pipe()  # noqa: rt-pipe-ownership\n"
            "    sys.stdout.flush()\n"
            "    pid = os.fork()\n"
            "    os._exit(0)\n"
        )
        assert "rt-pipe-ownership" not in _ids(lint_source(src))

    def test_noqa_bare_suppresses_all(self):
        src = "def close(self):\n    self._t.join()  # noqa\n"
        assert lint_source(src) == []

    def test_noqa_other_id_does_not_suppress(self):
        src = "def close(self):\n    self._t.join()  # noqa: rt-fork-flush\n"
        assert "rt-unbounded-close-join" in _ids(lint_source(src))

    def test_import_alias_resolution(self):
        src = (
            "import os as posix\n"
            "def f():\n"
            "    pid = posix.fork()\n"
            "    posix._exit(0)\n"
        )
        assert "rt-fork-flush" in _ids(lint_source(src))

    def test_nested_function_linted_separately(self):
        # The outer function neither forks nor joins; the nested one forks
        # cleanly except for the missing flush.
        src = (
            "import os\n"
            "def outer():\n"
            "    def inner():\n"
            "        pid = os.fork()\n"
            "        os._exit(0)\n"
            "    return inner\n"
        )
        diags = lint_source(src)
        assert _ids(diags) == {"rt-fork-flush"}

    def test_runtime_sources_are_clean(self):
        from pathlib import Path

        import repro.runtime
        from repro.analysis import lint_paths

        runtime_dir = Path(repro.runtime.__file__).parent
        assert lint_paths([runtime_dir]) == []


class TestLockOrderLint:
    """rt-lock-order: inconsistent lock-acquisition orders across functions."""

    INVERTED = (
        "def f(a_lock, b_lock):\n"
        "    with a_lock:\n"
        "        with b_lock:\n"
        "            pass\n"
        "def g(a_lock, b_lock):\n"
        "    with b_lock:\n"
        "        with a_lock:\n"
        "            pass\n"
    )

    def test_inversion_trigger(self):
        diags = [
            d for d in lint_source(self.INVERTED)
            if d.check_id == "rt-lock-order"
        ]
        assert len(diags) == 1
        # Reported once, at the later of the two orderings, naming both.
        assert diags[0].line == 7
        assert "f()" in diags[0].message and "g()" in diags[0].message

    def test_consistent_order_clean(self):
        src = (
            "def f(a_lock, b_lock):\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
            "def g(a_lock, b_lock):\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
        )
        assert lint_source(src) == []

    def test_multi_item_with_records_order(self):
        # `with a, b:` acquires left to right — inverting it elsewhere
        # is the same deadlock.
        src = (
            "def f(a_lock, b_lock):\n"
            "    with a_lock, b_lock:\n"
            "        pass\n"
            "def g(a_lock, b_lock):\n"
            "    with b_lock:\n"
            "        with a_lock:\n"
            "            pass\n"
        )
        assert "rt-lock-order" in _ids(lint_source(src))

    def test_non_lock_names_ignored(self):
        src = (
            "def f(conn, handle):\n"
            "    with conn:\n"
            "        with handle:\n"
            "            pass\n"
            "def g(conn, handle):\n"
            "    with handle:\n"
            "        with conn:\n"
            "            pass\n"
        )
        assert lint_source(src) == []

    def test_single_lock_never_flagged(self):
        src = (
            "def f(a_lock):\n"
            "    with a_lock:\n"
            "        pass\n"
            "def g(a_lock):\n"
            "    with a_lock:\n"
            "        pass\n"
        )
        assert lint_source(src) == []


class TestCLI:
    """``python -m repro.analysis`` in paths mode (the shipped-graph
    battery is exercised by the CI lint job itself, not re-trained here)."""

    def _write(self, tmp_path, source):
        target = tmp_path / "snippet.py"
        target.write_text(source, encoding="utf-8")
        return str(target)

    def test_clean_paths_exit_zero(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        assert main([self._write(tmp_path, FORK_CLEAN)]) == 0

    def test_findings_exit_one_and_print(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        src = "import os\ndef f():\n    pid = os.fork()\n    os._exit(0)\n"
        assert main([self._write(tmp_path, src)]) == 1
        out = capsys.readouterr().out
        assert "[rt-fork-flush]" in out
        assert "snippet.py:3" in out

    def test_suppress_flag(self, tmp_path):
        from repro.analysis.__main__ import main

        src = "import os\ndef f():\n    pid = os.fork()\n    os._exit(0)\n"
        path = self._write(tmp_path, src)
        assert main([path, "--suppress", "rt-fork-flush"]) == 0

    def test_unknown_suppress_rejected(self, tmp_path):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit):
            main(["--suppress", "not-a-check"])

    def test_list_checks(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for check_id in CHECKS:
            assert check_id in out

    def test_json_findings(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        src = "import os\ndef f():\n    pid = os.fork()\n    os._exit(0)\n"
        assert main([self._write(tmp_path, src), "--format=json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["exit_code"] == 1
        assert doc["summary"]["total"] == len(doc["findings"])
        flush = next(
            f for f in doc["findings"] if f["check_id"] == "rt-fork-flush"
        )
        assert flush["category"] == "fork-safety"
        assert flush["severity"] == "error"
        assert flush["line"] == 3
        assert flush["source"].endswith("snippet.py")

    def test_json_clean_is_empty_report(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        assert main([self._write(tmp_path, FORK_CLEAN), "--format=json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == []
        assert doc["summary"] == {
            "total": 0, "error": 0, "warning": 0, "info": 0, "exit_code": 0,
        }


class TestShippedGraphsClean:
    """The CI gate's contract: zero warning+ findings on shipped graphs."""

    def test_dnn_graph_clean(self, quantized_dnn):
        from repro.mapreduce import dnn_graph

        assert worst_severity(_verify(dnn_graph(quantized_dnn))) in (
            None, Severity.INFO,
        )

    def test_svm_graph_clean(self, trained_svm):
        from repro.mapreduce import svm_graph

        diags = _verify(svm_graph(trained_svm))
        assert "ir-fixpoint-drift" not in _ids(diags)  # bias is on-grid
        assert worst_severity(diags) in (None, Severity.INFO)

    def test_kmeans_graph_clean(self, trained_kmeans):
        from repro.mapreduce import kmeans_graph

        assert worst_severity(_verify(kmeans_graph(trained_kmeans))) in (
            None, Severity.INFO,
        )

    def test_microbench_graphs_clean(self):
        from repro.mapreduce import (
            activation_graph,
            conv1d_graph,
            inner_product_graph,
        )

        for g in (
            inner_product_graph(16),
            activation_graph("tanh_pw"),
            activation_graph("act_lut"),
            conv1d_graph(unroll=8),
        ):
            assert worst_severity(_verify(g)) in (None, Severity.INFO), g.name


class TestFrontendIntegration:
    def test_lowering_rejects_invalid_graph(self):
        from repro.mapreduce.frontend import _verified

        g = DataflowGraph(name="bad")
        g.add("input", name="x", width=4)  # no output node
        with pytest.raises(ValueError, match="ir-no-output"):
            _verified(g)

    def test_lowering_passes_valid_graph(self):
        from repro.mapreduce.frontend import _verified

        g = _chain_graph()
        assert _verified(g) is g


# ----------------------------------------------------------------------
# Property test: clean random graphs execute; seeded defects are caught.
# ----------------------------------------------------------------------
_OPS = st.lists(
    st.sampled_from(["map", "dot", "reduce", "gather"]),
    min_size=0, max_size=5,
)


def _random_graph(width, ops):
    """A random layered chain, clean by construction.

    Always starts with one map node so defect seeding has a guaranteed
    victim whose kind carries fn/batch_fn semantics.
    """
    g = DataflowGraph(name="random")
    cursor = g.add("input", name="x", width=width)
    cur_width = width
    for i, op in enumerate(["map"] + ops):
        if cur_width == 1 and op in ("reduce", "dot"):
            op = "map"
        if op == "map":
            cursor = g.add("map", preds=[cursor], name=f"m{i}",
                           width=cur_width, chain_ops=1, fn=_rt, batch_fn=_rt)
        elif op == "dot":
            def dot_fn(x):
                return _rt(np.sum(x, axis=-1, keepdims=True))

            cursor = g.add("dot", preds=[cursor], name=f"d{i}", parallel=1,
                           width=cur_width, chain_ops=1, reduce_op="sum",
                           fn=dot_fn, batch_fn=dot_fn)
            cur_width = 1
        elif op == "reduce":
            cursor = g.add("reduce", preds=[cursor], name=f"r{i}",
                           width=cur_width, reduce_op="max")
            cur_width = 1
        elif op == "gather":
            cursor = g.add("gather", preds=[cursor], name=f"g{i}",
                           width=cur_width)
    g.add("output", preds=[cursor], name="y", width=cur_width)
    return g


class TestPropertyCleanGraphsExecute:
    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(2, 8), ops=_OPS, seed=st.integers(0, 2**16))
    def test_verifier_clean_graphs_execute(self, width, ops, seed):
        g = _random_graph(width, ops)
        assert _verify(g) == []  # clean by construction

        rng = np.random.default_rng(seed)
        features = FIX8.roundtrip(rng.uniform(-2, 2, size=(4, width)))
        batch = g.execute_batch(features)
        assert batch.shape == (4, g.outputs()[0].width)
        for b in range(4):
            scalar = np.atleast_1d(g.execute(features[b]))
            assert np.array_equal(scalar, batch[b])

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.integers(2, 8),
        ops=_OPS,
        defect=st.sampled_from(
            ["gather-width", "no-semantics", "dead-node", "no-output",
             "dangling-pred", "drift"]
        ),
    )
    def test_seeded_defects_are_caught(self, width, ops, defect):
        g = _random_graph(width, ops)
        victim = next(n for n in g.nodes.values() if n.kind == "map")
        out = g.outputs()[0]
        expected = {
            "gather-width": "ir-gather-width",
            "no-semantics": "ir-no-semantics",
            "dead-node": "ir-dead-node",
            "no-output": "ir-no-output",
            "dangling-pred": "ir-malformed-io",
            "drift": "ir-fixpoint-drift",
        }[defect]

        if defect == "gather-width":
            gt = g.add("gather", preds=[victim], name="badg",
                       width=victim.width + 3)
            out.preds, out.width = [gt.node_id], gt.width
        elif defect == "no-semantics":
            victim.fn = victim.batch_fn = None
        elif defect == "dead-node":
            g.add("map", preds=[victim], name="deadm", width=victim.width,
                  chain_ops=1, fn=_rt, batch_fn=_rt)
        elif defect == "no-output":
            del g.nodes[out.node_id]
        elif defect == "dangling-pred":
            victim.preds.append(4096)
        elif defect == "drift":
            # Seed at the *last* hop: a downstream roundtrip would erase
            # off-grid leakage before it reaches the output.
            bad = lambda x: np.asarray(x) * 0 + 1e-4  # noqa: E731
            m = g.add("map", preds=[g.nodes[out.preds[0]]], name="driftm",
                      width=out.width, chain_ops=1, fn=bad, batch_fn=bad)
            out.preds = [m.node_id]

        assert expected in _ids(_verify(g)), defect


# ----------------------------------------------------------------------
# Range analysis: trigger + clean per check, waivers, widening, soundness.
# ----------------------------------------------------------------------
def _ranged_graph(value_range, *, transfer="roundtrip", payload=None,
                  width=4, waivers=(), fn=_rt):
    """input(value_range) -> map(transfer, payload) -> output."""
    g = DataflowGraph(name="ranged")
    inp = g.add("input", name="x", width=width, value_range=value_range)
    m = g.add("map", preds=[inp], name="m", width=width, chain_ops=1,
              fn=fn, batch_fn=fn, transfer=transfer,
              payload=payload or {}, waivers=waivers)
    g.add("output", preds=[m], name="y", width=width)
    return g


def _dot_graph(value_range, weights, fmt):
    """input -> dot(resident bank) -> output with a dot transfer."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))

    def fn(x):
        return fmt.roundtrip(
            (np.asarray(x, dtype=np.float64)[..., None, :] * w).sum(axis=-1)
        )

    g = DataflowGraph(name="dotted")
    inp = g.add("input", name="x", width=w.shape[1],
                value_range=value_range)
    bank = g.add("const", name="w", weight_values=int(w.size),
                 payload={"values": w})
    d = g.add("dot", preds=[inp, bank], name="d", parallel=1,
              width=w.shape[1], chain_ops=1, reduce_op="sum",
              fn=fn, batch_fn=fn, transfer="dot",
              payload={"weights": w, "fmt": fmt})
    g.add("output", preds=[d], name="y", width=w.shape[0])
    return g


def _accum_fn(key, fmt=None):
    """An executable recurrent accumulator matching ``state_accum``."""
    ns = {"FMT": fmt}
    body = f"    out = state.get({key!r}, 0.0) + x\n"
    if fmt is not None:
        body += "    out = FMT.roundtrip(out)\n"
    exec(  # noqa: S102 - building a fixture, key is a test literal
        "def fn(x, state=None):\n" + body +
        f"    state[{key!r}] = out\n"
        "    return out\n",
        ns,
    )
    fn = ns["fn"]
    fn.wants_state = True
    return fn


def _accum_graph(iterations, fmt=None):
    g = DataflowGraph(name="accum", temporal_iterations=iterations)
    inp = g.add("input", name="x", width=1, value_range=(0.0, 1.0))
    payload = {"key": "acc", "state_writes": {"acc": "output"}}
    if fmt is not None:
        payload["fmt"] = fmt
    fn = _accum_fn("acc", fmt)
    g.add("map", preds=[inp], name="acc_node", width=1, chain_ops=1,
          fn=fn, batch_fn=fn, transfer="state_accum", payload=payload)
    g.add("output", preds=[g.nodes[1]], name="y", width=1)
    return g


def _assert_observed_within(graph, report, features):
    """Every value ``execute_batch`` produces sits in its interval."""

    def observer(node, value, iteration):
        if node.kind == "const":
            return  # resident banks, not streamed values
        iv = report.intervals[node.node_id]
        arr = np.asarray(value, dtype=np.float64)
        assert arr.min() >= iv.lo - 1e-9, (node.name, iv, float(arr.min()))
        assert arr.max() <= iv.hi + 1e-9, (node.name, iv, float(arr.max()))

    graph.execute_batch(features, observer=observer)


class TestIntervalLattice:
    def test_join_and_contains(self):
        a, b = Interval(-1.0, 0.5), Interval(0.0, 2.0)
        assert a.join(b) == Interval(-1.0, 2.0)
        assert a.join(b).contains(2.0) and not a.contains(2.0)

    def test_top_absorbs(self):
        assert Interval(-1.0, 1.0).join(TOP) == TOP
        assert not TOP.bounded

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="lo must not exceed hi"):
            Interval(1.0, -1.0)


class TestRangeChecks:
    def test_saturate_trigger(self):
        fmt = FIX8.with_frac_bits(6)  # Q1.6: ~[-2, 2)
        report = analyze_ranges(
            _ranged_graph((-4.0, 4.0), payload={"fmt": fmt},
                          fn=fmt.roundtrip)
        )
        sat = [d for d in report.diagnostics
               if d.check_id == "an-may-saturate"]
        assert len(sat) == 1 and sat[0].severity == Severity.WARNING
        # The post-clip interval is the format's representable range.
        iv = report.interval_of("m")
        assert iv == Interval(fmt.min_value, fmt.max_value)

    def test_saturate_clean(self):
        fmt = FIX8.with_frac_bits(6)
        report = analyze_ranges(
            _ranged_graph((-1.0, 1.0), payload={"fmt": fmt},
                          fn=fmt.roundtrip)
        )
        assert report.diagnostics == []
        assert report.interval_of("m") == Interval(-1.0, 1.0)

    def test_unbounded_input_is_top_and_flagged(self):
        report = analyze_ranges(_ranged_graph(None))
        assert report.interval_of("x") == TOP
        assert "an-may-saturate" in _ids(report.diagnostics)

    def test_acc_overflow_trigger(self):
        # |W|·2^16 · |x|·2^16 exceeds int64: the wide MAC would wrap.
        g = _dot_graph((-30000.0, 30000.0), np.full((1, 4), 32000.0), FIX32)
        assert "an-acc-overflow" in _ids(analyze_ranges(g).diagnostics)

    def test_acc_overflow_clean(self):
        g = _dot_graph((-1.0, 1.0), np.full((1, 4), 0.25), FIX32)
        report = analyze_ranges(g)
        assert report.diagnostics == []
        assert report.interval_of("d") == Interval(-1.0, 1.0)

    def test_lut_oob_trigger(self):
        g = _ranged_graph(
            (-4.0, 4.0), transfer="lut",
            payload={"domain": (-2.0, 2.0), "range": (0.0, 1.0)},
        )
        assert "an-lut-oob" in _ids(analyze_ranges(g).diagnostics)

    def test_lut_in_domain_clean(self):
        g = _ranged_graph(
            (-2.0, 2.0), transfer="lut",
            payload={"domain": (-2.0, 2.0), "range": (0.0, 1.0)},
        )
        report = analyze_ranges(g)
        assert report.diagnostics == []
        assert report.interval_of("m") == Interval(0.0, 1.0)

    def test_narrowable_info(self):
        fmt = FIX16.with_frac_bits(4)  # Q11.4: +/-0.4 fits 8 bits
        report = analyze_ranges(
            _ranged_graph((-0.4, 0.4), payload={"fmt": fmt},
                          fn=fmt.roundtrip)
        )
        narrow = [d for d in report.diagnostics
                  if d.check_id == "an-narrowable"]
        assert len(narrow) == 1 and narrow[0].severity == Severity.INFO
        assert "8 bits" in narrow[0].message

    def test_narrowable_clean_when_width_is_used(self):
        fmt = FIX16.with_frac_bits(4)
        report = analyze_ranges(
            _ranged_graph((-1000.0, 1000.0), payload={"fmt": fmt},
                          fn=fmt.roundtrip)
        )
        assert report.diagnostics == []

    def test_waiver_downgrades_to_info(self):
        fmt = FIX8.with_frac_bits(6)
        report = analyze_ranges(
            _ranged_graph((-4.0, 4.0), payload={"fmt": fmt},
                          fn=fmt.roundtrip,
                          waivers=("an-may-saturate",))
        )
        sat = [d for d in report.diagnostics
               if d.check_id == "an-may-saturate"]
        assert len(sat) == 1
        assert sat[0].severity == Severity.INFO
        assert "waived at lowering" in sat[0].message

    def test_suppress_drops_findings(self):
        fmt = FIX8.with_frac_bits(6)
        g = _ranged_graph((-4.0, 4.0), payload={"fmt": fmt},
                          fn=fmt.roundtrip)
        report = analyze_ranges(g, suppress={"an-may-saturate"})
        assert report.diagnostics == []

    def test_unknown_transfer_rejected(self):
        g = _ranged_graph((-1.0, 1.0), transfer="no-such-transfer")
        with pytest.raises(KeyError, match="no-such-transfer"):
            analyze_ranges(g)


class TestRangeStateful:
    def test_bounded_iterations_converge(self):
        g = _accum_graph(iterations=3)
        report = analyze_ranges(g)
        assert report.passes == 3
        # Three joined writes of [0, 1] on a zero-initialized key.
        assert report.state["acc"] == Interval(0.0, 3.0)
        _assert_observed_within(g, report, np.full((4, 1), 1.0))

    def test_widening_reaches_fixed_point(self):
        from repro.analysis.ranges import WIDEN_AFTER

        g = _accum_graph(iterations=64, fmt=FIX8)
        report = analyze_ranges(g)
        # Still growing at the widening threshold: the key jumps to TOP
        # and the next pass is stable by absorption.
        assert report.passes == WIDEN_AFTER + 1
        assert report.state["acc"] == TOP
        assert "an-may-saturate" in _ids(report.diagnostics)
        # The saturating format still bounds the node's output.
        assert report.interval_of("acc_node") == Interval(
            FIX8.min_value, FIX8.max_value
        )
        _assert_observed_within(g, report, np.full((4, 1), 1.0))

    def test_declared_state_range_used(self):
        g = _ranged_graph(
            (-1.0, 1.0), transfer="state_read", payload={"keys": ("h",)},
        )
        g.nodes[1].fn = g.nodes[1].batch_fn = None
        report = analyze_ranges(g)
        # No writer: zero-initialized state stays [0, 0].
        assert report.interval_of("m") == Interval(0.0, 0.0)


_RANGE_OPS = st.lists(
    st.sampled_from(["rt", "affine", "clip", "relu", "tanh", "dot"]),
    min_size=0, max_size=6,
)


def _affine_fn(scale, offset):
    def fn(x):
        return np.asarray(x, dtype=np.float64) * scale + offset
    return fn


def _clip_fn(lo, hi):
    def fn(x):
        return np.clip(np.asarray(x, dtype=np.float64), lo, hi)
    return fn


def _bank_dot_fn(w):
    def fn(x):
        return FIX8.roundtrip(
            (np.asarray(x, dtype=np.float64) * w).sum(axis=-1, keepdims=True)
        )
    return fn


def _random_ranged_graph(width, ops, rng):
    """A random transfer-annotated chain whose semantics the transfers
    model exactly — the soundness property's universe."""
    from repro.ml.activations import relu, tanh

    g = DataflowGraph(name="ranged-random")
    cursor = g.add("input", name="x", width=width, value_range=(-2.0, 2.0))
    cur_width = width
    for i, op in enumerate(ops):
        if op == "dot" and cur_width == 1:
            op = "rt"
        if op == "rt":
            cursor = g.add("map", preds=[cursor], name=f"rt{i}",
                           width=cur_width, chain_ops=1, fn=_rt, batch_fn=_rt,
                           transfer="roundtrip")
        elif op == "affine":
            scale = float(rng.choice([-1.5, -0.5, 0.5, 1.25]))
            offset = float(rng.choice([-0.25, 0.0, 0.5]))
            fn = _affine_fn(scale, offset)
            cursor = g.add("map", preds=[cursor], name=f"a{i}",
                           width=cur_width, chain_ops=1, fn=fn, batch_fn=fn,
                           transfer="affine",
                           payload={"scale": scale, "offset": offset})
        elif op == "clip":
            fn = _clip_fn(-1.0, 1.0)
            cursor = g.add("map", preds=[cursor], name=f"c{i}",
                           width=cur_width, chain_ops=1, fn=fn, batch_fn=fn,
                           transfer="clip", payload={"clip": (-1.0, 1.0)})
        elif op == "relu":
            cursor = g.add("map", preds=[cursor], name=f"re{i}",
                           width=cur_width, chain_ops=1, fn=relu,
                           batch_fn=relu, transfer="relu")
        elif op == "tanh":
            cursor = g.add("map", preds=[cursor], name=f"t{i}",
                           width=cur_width, chain_ops=1, fn=tanh,
                           batch_fn=tanh, transfer="tanh")
        elif op == "dot":
            w = FIX8.roundtrip(rng.uniform(-1.0, 1.0, size=cur_width))
            bank = g.add("const", name=f"w{i}", weight_values=int(w.size),
                         payload={"values": w})
            fn = _bank_dot_fn(w)
            cursor = g.add("dot", preds=[cursor, bank], name=f"d{i}",
                           parallel=1, width=cur_width, chain_ops=1,
                           reduce_op="sum", fn=fn, batch_fn=fn,
                           transfer="dot",
                           payload={"weights": w.reshape(1, -1),
                                    "fmt": FIX8})
            cur_width = 1
    g.add("output", preds=[cursor], name="y", width=cur_width)
    return g


class TestRangeSoundness:
    """The analysis contract: observed values sit inside predicted
    intervals for any input satisfying the declared preconditions."""

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(2, 6), ops=_RANGE_OPS, seed=st.integers(0, 2**16))
    def test_observed_within_predicted(self, width, ops, seed):
        rng = np.random.default_rng(seed)
        g = _random_ranged_graph(width, ops, rng)
        report = analyze_ranges(g)
        features = FIX8.roundtrip(rng.uniform(-2.0, 2.0, size=(5, width)))
        _assert_observed_within(g, report, features)

    def test_saturating_corpus_is_flagged(self):
        narrow = FIX8.with_frac_bits(6)
        corpus = [
            (_ranged_graph((-4.0, 4.0), payload={"fmt": narrow},
                           fn=narrow.roundtrip), "an-may-saturate"),
            (_dot_graph((-30000.0, 30000.0), np.full((1, 4), 32000.0),
                        FIX32), "an-acc-overflow"),
            (_ranged_graph((-4.0, 4.0), transfer="lut",
                           payload={"domain": (-2.0, 2.0),
                                    "range": (0.0, 1.0)}), "an-lut-oob"),
        ]
        for g, expected in corpus:
            assert expected in _ids(analyze_ranges(g).diagnostics), expected


class TestShippedGraphsRangeClean:
    """Acceptance: every shipped lowering passes the range gate —
    zero warning+ findings (waivers are already info-severity)."""

    def _assert_range_clean(self, graph):
        report = analyze_ranges(graph)
        gating = [d for d in report.diagnostics
                  if d.severity >= Severity.WARNING]
        assert gating == [], [d.format() for d in gating]

    def test_dnn(self, quantized_dnn):
        from repro.mapreduce import dnn_graph

        self._assert_range_clean(dnn_graph(quantized_dnn))

    def test_svm(self, trained_svm):
        from repro.mapreduce import svm_graph

        self._assert_range_clean(svm_graph(trained_svm))

    def test_kmeans(self, trained_kmeans):
        from repro.mapreduce import kmeans_graph

        self._assert_range_clean(kmeans_graph(trained_kmeans))

    def test_lstm(self):
        from repro.mapreduce import lstm_graph
        from repro.ml import indigo_lstm

        self._assert_range_clean(lstm_graph(indigo_lstm(seed=0)))

    def test_microbenches(self):
        from repro.mapreduce import (
            activation_graph,
            conv1d_graph,
            inner_product_graph,
        )
        from repro.ml.activations import ACTIVATIONS

        self._assert_range_clean(inner_product_graph(16))
        self._assert_range_clean(conv1d_graph(unroll=8))
        for name in ACTIVATIONS:
            self._assert_range_clean(activation_graph(name))
