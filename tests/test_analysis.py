"""Tests for ``repro.analysis``: trigger + clean fixtures per check.

Fixtures pin each check's edges (what it flags, what it leaves alone);
what the checks catch in the shipped sources is
``tests/test_analysis_yield.py``.  A property test closes the loop:
random verifier-clean graphs execute through both interpreter paths
without error, while seeded defect classes are caught statically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CHECKS,
    TOP,
    Interval,
    Severity,
    analyze_concurrency_sources,
    analyze_ranges,
    verify_graph,
    worst_severity,
)
from repro.analysis.__main__ import main
from repro.fixpoint import FIX8
from repro.mapreduce import DataflowGraph


def _ids(diags):
    return {d.check_id for d in diags}


def _runtime_pass(src, path="snippet.py"):
    """The runtime-source analysis over one source text."""
    return analyze_concurrency_sources([(path, src)])


def _rt(x):
    return FIX8.roundtrip(x)


def _chain_graph(width=4, name="g"):
    """input -> map(roundtrip) -> output: the minimal clean graph."""
    g = DataflowGraph(name=name)
    inp = g.add("input", name="x", width=width)
    m = g.add("map", preds=[inp], name="m", width=width, chain_ops=1,
              fn=_rt)
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
              fn=lambda x: np.sum(x, axis=-1, keepdims=True))
    g.add("output", preds=[d], name="y", width=1)
    return g


class TestCatalog:
    def test_every_check_has_spec(self):
        for check_id, spec in CHECKS.items():
            assert spec.check_id == check_id
            assert spec.category in (
                "shape", "structure", "fork-safety", "range", "concurrency",
            )
            assert spec.summary

    def test_catalog_spans_required_categories(self):
        assert len(CHECKS) >= 8
        categories = {spec.category for spec in CHECKS.values()}
        assert {
            "shape", "structure", "fork-safety", "range", "concurrency",
        } <= categories

    def test_concurrency_checks_registered(self):
        assert {c for c, spec in CHECKS.items() if spec.category == "concurrency"} == {
            "rt-racy-field", "rt-lockset-inconsistent", "rt-lock-order",
            "rt-cv-wait-no-predicate", "rt-cv-notify-unheld",
            "rt-frame-unconsumed", "rt-ack-window-order",
        }

    def test_severities(self):
        assert CHECKS["rt-cv-notify-unheld"].severity == Severity.ERROR
        assert CHECKS["rt-ack-window-order"].severity == Severity.ERROR
        assert CHECKS["rt-lock-order"].severity == Severity.ERROR
        assert CHECKS["rt-racy-field"].severity == Severity.WARNING

    def test_severity_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert str(Severity.WARNING) == "warning"

    def test_worst_severity(self):
        assert worst_severity([]) is None
        g = _chain_graph()
        g.nodes[1].fn = lambda x: np.asarray(x) + 1e-4
        assert worst_severity(verify_graph(g)) == Severity.WARNING

    def test_diagnostic_format_has_provenance(self):
        g = _chain_graph(name="fmt")
        g.nodes[1].fn = None
        diag = next(
            d for d in verify_graph(g, probe=False)
            if d.check_id == "ir-no-semantics"
        )
        text = diag.format()
        assert "fmt" in text and "[ir-no-semantics]" in text
        assert "error" in text


class TestCleanGraph:
    def test_chain_graph_is_clean(self):
        assert verify_graph(_chain_graph()) == []


class TestStructureChecks:
    def test_no_output_trigger(self):
        g = DataflowGraph(name="g")
        g.add("input", name="x", width=4)
        assert "ir-no-output" in _ids(verify_graph(g))

    def test_multi_output_trigger(self):
        g = _chain_graph()
        g.add("output", preds=[g.nodes[1]], name="y2", width=4)
        diags = verify_graph(g)
        assert "ir-multi-output" in _ids(diags)
        assert worst_severity(diags) == Severity.WARNING

    def test_orphan_trigger(self):
        g = _chain_graph()
        g.nodes[1].preds.clear()
        assert "ir-orphan" in _ids(verify_graph(g))

    def test_dead_node_trigger(self):
        g = _chain_graph()
        g.add("map", preds=[g.nodes[0]], name="dead", width=4, chain_ops=1,
              fn=_rt)
        assert "ir-dead-node" in _ids(verify_graph(g))

    def test_const_is_neither_unreachable_nor_dead(self):
        assert verify_graph(_heavy_graph(weight_values=4)) == []

    def test_state_collision_trigger(self):
        g = DataflowGraph(name="g", temporal_iterations=2)
        inp = g.add("input", name="x", width=4)
        fa, fb = _stateful("h"), _stateful("h")
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=fa)
        b = g.add("map", preds=[a], name="b", width=4, chain_ops=1,
                  fn=fb)
        g.add("output", preds=[b], name="y", width=4)
        assert "ir-state-collision" in _ids(verify_graph(g, probe=False))

    def test_reserved_state_key_trigger(self):
        g = DataflowGraph(name="g", temporal_iterations=2)
        inp = g.add("input", name="x", width=4)
        fn = _stateful("iteration")
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=fn)
        g.add("output", preds=[a], name="y", width=4)
        assert "ir-state-collision" in _ids(verify_graph(g, probe=False))

    def test_distinct_state_keys_clean(self):
        g = DataflowGraph(name="g", temporal_iterations=2)
        inp = g.add("input", name="x", width=4)
        fa, fb = _stateful("h"), _stateful("c")
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=fa)
        b = g.add("map", preds=[a], name="b", width=4, chain_ops=1,
                  fn=fb)
        g.add("output", preds=[b], name="y", width=4)
        assert "ir-state-collision" not in _ids(verify_graph(g, probe=False))

    def test_lstm_epilogue_and_state_clean(self):
        """The LSTM exercises epilogue + temporal + state — all clean."""
        from repro.mapreduce import lstm_graph
        from repro.ml import indigo_lstm

        diags = verify_graph(lstm_graph(indigo_lstm(seed=0)))
        assert worst_severity(diags) in (None, Severity.INFO)


class TestShapeChecks:
    def test_width_mismatch_dot_trigger(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        d = g.add("dot", preds=[inp], name="d", parallel=1, width=8,
                  chain_ops=1, reduce_op="sum",
                  fn=lambda x: np.sum(x, axis=-1, keepdims=True))
        g.add("output", preds=[d], name="y", width=1)
        assert "ir-width-mismatch" in _ids(verify_graph(g, probe=False))

    def test_width_mismatch_output_trigger(self):
        g = _chain_graph()
        g.nodes[2].width = 2  # output claims 2, map produces 4
        assert "ir-width-mismatch" in _ids(verify_graph(g, probe=False))

    def test_width_mismatch_reduce_trigger(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        r = g.add("reduce", preds=[inp], name="r", width=7, reduce_op="sum")
        g.add("output", preds=[r], name="y", width=1)
        assert "ir-width-mismatch" in _ids(verify_graph(g, probe=False))

    def test_gather_width_trigger(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=_rt)
        b = g.add("map", preds=[inp], name="b", width=4, chain_ops=1,
                  fn=_rt)
        gt = g.add("gather", preds=[a, b], name="gt", width=5)  # != 8
        g.add("output", preds=[gt], name="y", width=5)
        assert "ir-gather-width" in _ids(verify_graph(g, probe=False))

    def test_gather_width_clean(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        a = g.add("map", preds=[inp], name="a", width=4, chain_ops=1,
                  fn=_rt)
        b = g.add("map", preds=[inp], name="b", width=4, chain_ops=1,
                  fn=_rt)
        gt = g.add("gather", preds=[a, b], name="gt", width=8)
        g.add("output", preds=[gt], name="y", width=8)
        assert verify_graph(g) == []

    def test_map_may_slice_its_input(self):
        """conv-style window extraction: width-4 input, width-2 map."""
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        m = g.add("map", preds=[inp], name="w", width=2, chain_ops=1,
                  fn=lambda x: np.asarray(x)[..., :2])
        g.add("output", preds=[m], name="y", width=2)
        assert verify_graph(g) == []

    def test_no_semantics_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = None
        assert "ir-no-semantics" in _ids(verify_graph(g, probe=False))

    def test_reduce_op_counts_as_semantics(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        r = g.add("reduce", preds=[inp], name="r", width=4, reduce_op="sum")
        g.add("output", preds=[r], name="y", width=1)
        assert "ir-no-semantics" not in _ids(verify_graph(g))

    def test_unknown_reduce_op_has_no_semantics(self):
        g = DataflowGraph(name="g")
        inp = g.add("input", name="x", width=4)
        r = g.add("reduce", preds=[inp], name="r", width=4,
                  reduce_op="median")
        g.add("output", preds=[r], name="y", width=1)
        assert "ir-no-semantics" in _ids(verify_graph(g, probe=False))


class TestProbeChecks:
    def test_non_2d_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = lambda x: np.asarray(x)[:, :, None]  # 3-D
        assert "ir-non-2d" in _ids(verify_graph(g))

    def test_probe_width_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = lambda x: np.asarray(x)[..., :2]
        assert "ir-probe-width" in _ids(verify_graph(g))  # declares 4, emits 2

    def test_fixpoint_drift_trigger(self):
        g = _chain_graph()
        g.nodes[1].fn = lambda x: np.asarray(x) + 1e-4
        diags = verify_graph(g)
        assert "ir-fixpoint-drift" in _ids(diags)
        assert worst_severity(diags) == Severity.WARNING

    def test_probe_failure_trigger(self):
        def boom(x):
            raise RuntimeError("kaput")

        g = _chain_graph()
        g.nodes[1].fn = boom
        assert "ir-probe-failure" in _ids(verify_graph(g))

    def test_probe_skipped_on_structural_errors(self):
        def boom(x):
            raise RuntimeError("kaput")

        g = _chain_graph()
        g.nodes[1].fn = boom
        g.add("map", name="orphan", width=4, chain_ops=1, fn=_rt)
        assert "ir-probe-failure" not in _ids(verify_graph(g))  # ir-orphan gates it

    def test_probe_flag_disables(self):
        def boom(x):
            raise RuntimeError("kaput")

        g = _chain_graph()
        g.nodes[1].fn = boom
        assert "ir-probe-failure" not in _ids(verify_graph(g, probe=False))


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
        return [d for d in verify_graph(graph) if d.check_id == "ir-batch-divergence"]

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
    """The fork-safety checks, which ride the runtime pass per function."""

    def test_clean_source(self):
        assert _runtime_pass(FORK_CLEAN, "clean.py") == []

    def test_pipe_fdopen_counts_as_ownership(self):
        src = (
            "import os\n"
            "def f():\n"
            "    r, w = os.pipe()\n"
            "    os.close(w)\n"
            "    return os.fdopen(r, 'rb')\n"
        )
        assert _runtime_pass(src) == []

    def test_unbounded_close_join_trigger(self):
        # A close path gets no exemption: an untimed join is an unbounded wait.
        diags = _runtime_pass("def close(self):\n    self._t.join()\n")
        assert _ids(diags) == {"rt-unbounded-recv"}
        assert diags[0].severity == Severity.WARNING

    def test_bounded_join_clean(self):
        src = "def close(self):\n    self._t.join(timeout=1.0)\n"
        assert _runtime_pass(src) == []

    def test_join_outside_close_path_flagged(self):
        # An untimed join outside a close path can park a supervision
        # loop forever on a stuck worker; it must be bounded.
        src = "def collect(self):\n    self._t.join()\n"
        diags = _runtime_pass(src)
        assert _ids(diags) == {"rt-unbounded-recv"}
        assert diags[0].severity == Severity.WARNING

    def test_bounded_join_outside_close_path_clean(self):
        src = "def collect(self):\n    self._t.join(1.0)\n"
        assert _runtime_pass(src) == []

    def test_unbounded_recv_trigger(self):
        src = "def collect(self):\n    return self.worker.recv()\n"
        assert _ids(_runtime_pass(src)) == {"rt-unbounded-recv"}

    def test_unbounded_recv_flagged_even_on_close_path(self):
        # recv() has no close-path exemption: a dead worker never
        # answers, whatever phase the caller is in.
        src = "def close(self):\n    return self.worker.recv()\n"
        assert "rt-unbounded-recv" in _ids(_runtime_pass(src))

    def test_bounded_recv_clean(self):
        src = "def collect(self):\n    return self.worker.recv(30.0)\n"
        assert _runtime_pass(src) == []

    def test_recv_keyword_timeout_clean(self):
        src = (
            "def collect(self):\n"
            "    return self.worker.recv(hang_timeout=30.0)\n"
        )
        assert _runtime_pass(src) == []

    def test_string_join_not_flagged(self):
        src = "def close(self):\n    return ', '.join(['a'])\n"
        assert _runtime_pass(src) == []

    def test_noqa_listed_suppression(self):
        src = (
            "import os, sys\n"
            "def f():\n"
            "    r, w = os.pipe()  # noqa: rt-pipe-ownership\n"
            "    sys.stdout.flush()\n"
            "    pid = os.fork()\n"
            "    os._exit(0)\n"
        )
        assert "rt-pipe-ownership" not in _ids(_runtime_pass(src))

    def test_noqa_bare_suppresses_all(self):
        src = "def close(self):\n    self._t.join()  # noqa\n"
        assert _runtime_pass(src) == []

    def test_noqa_other_id_does_not_suppress(self):
        src = "def close(self):\n    self._t.join()  # noqa: rt-fork-flush\n"
        assert "rt-unbounded-recv" in _ids(_runtime_pass(src))

    def test_import_alias_resolution(self):
        src = (
            "import os as posix\n"
            "def f():\n"
            "    pid = posix.fork()\n"
            "    posix._exit(0)\n"
        )
        assert "rt-fork-flush" in _ids(_runtime_pass(src))

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
        diags = _runtime_pass(src)
        assert _ids(diags) == {"rt-fork-flush"}


class TestCLI:
    """``python -m repro.analysis`` in paths mode (the shipped-graph
    battery is exercised by the CI lint job itself, not re-trained here)."""

    def _write(self, tmp_path, source):
        target = tmp_path / "snippet.py"
        target.write_text(source, encoding="utf-8")
        return str(target)

    def test_clean_paths_exit_zero(self, tmp_path, capsys):
        assert main([self._write(tmp_path, FORK_CLEAN)]) == 0

    def test_findings_exit_one_and_print(self, tmp_path, capsys):
        src = "import os\ndef f():\n    pid = os.fork()\n    os._exit(0)\n"
        assert main([self._write(tmp_path, src)]) == 1
        out = capsys.readouterr().out
        assert "[rt-fork-flush]" in out
        assert "snippet.py:3" in out

    def test_list_checks(self, capsys):
        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for check_id in CHECKS:
            assert check_id in out

class TestShippedGraphsClean:
    """The CI gate's contract: zero warning+ findings on shipped graphs."""

    def test_dnn_graph_clean(self, quantized_dnn):
        from repro.mapreduce import dnn_graph

        assert worst_severity(verify_graph(dnn_graph(quantized_dnn))) in (
            None, Severity.INFO,
        )

    def test_svm_graph_clean(self, trained_svm):
        from repro.mapreduce import svm_graph

        diags = verify_graph(svm_graph(trained_svm))
        assert "ir-fixpoint-drift" not in _ids(diags)  # bias is on-grid
        assert worst_severity(diags) in (None, Severity.INFO)

    def test_kmeans_graph_clean(self, trained_kmeans):
        from repro.mapreduce import kmeans_graph

        assert worst_severity(verify_graph(kmeans_graph(trained_kmeans))) in (
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
            assert worst_severity(verify_graph(g)) in (None, Severity.INFO), g.name


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
    victim whose kind carries fn semantics.
    """
    g = DataflowGraph(name="random")
    cursor = g.add("input", name="x", width=width)
    cur_width = width
    for i, op in enumerate(["map"] + ops):
        if cur_width == 1 and op in ("reduce", "dot"):
            op = "map"
        if op == "map":
            cursor = g.add("map", preds=[cursor], name=f"m{i}",
                           width=cur_width, chain_ops=1, fn=_rt)
        elif op == "dot":
            def dot_fn(x):
                return _rt(np.sum(x, axis=-1, keepdims=True))

            cursor = g.add("dot", preds=[cursor], name=f"d{i}", parallel=1,
                           width=cur_width, chain_ops=1, reduce_op="sum",
                           fn=dot_fn)
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
        assert verify_graph(g) == []  # clean by construction

        rng = np.random.default_rng(seed)
        features = FIX8.roundtrip(rng.uniform(-2, 2, size=(4, width)))
        batch = g.execute_batch(features)
        assert batch.shape == (4, g.outputs()[0].width)
        for b in range(4):
            assert np.array_equal(g.execute(features[b]), batch[b])

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.integers(2, 8),
        ops=_OPS,
        defect=st.sampled_from(
            ["gather-width", "no-semantics", "dead-node", "no-output", "drift"]
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
            "drift": "ir-fixpoint-drift",
        }[defect]

        if defect == "gather-width":
            gt = g.add("gather", preds=[victim], name="badg",
                       width=victim.width + 3)
            out.preds, out.width = [gt.node_id], gt.width
        elif defect == "no-semantics":
            victim.fn = None
        elif defect == "dead-node":
            g.add("map", preds=[victim], name="deadm", width=victim.width,
                  chain_ops=1, fn=_rt)
        elif defect == "no-output":
            del g.nodes[out.node_id]
        elif defect == "drift":
            # Seed at the *last* hop: a downstream roundtrip would erase
            # off-grid leakage before it reaches the output.
            bad = lambda x: np.asarray(x) * 0 + 1e-4  # noqa: E731
            m = g.add("map", preds=[g.nodes[out.preds[0]]], name="driftm",
                      width=out.width, chain_ops=1, fn=bad)
            out.preds = [m.node_id]

        assert expected in _ids(verify_graph(g)), defect


# ----------------------------------------------------------------------
# Range analysis: trigger + clean per check, waivers, widening, soundness.
# ----------------------------------------------------------------------
def _ranged_graph(value_range, *, transfer="roundtrip", payload=None,
                  width=4, waivers=(), fn=_rt):
    """input(value_range) -> map(transfer, payload) -> output."""
    g = DataflowGraph(name="ranged")
    inp = g.add("input", name="x", width=width, value_range=value_range)
    m = g.add("map", preds=[inp], name="m", width=width, chain_ops=1,
              fn=fn, transfer=transfer,
              payload=payload or {}, waivers=waivers)
    g.add("output", preds=[m], name="y", width=width)
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
          fn=fn, transfer="state_accum", payload=payload)
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
        g.nodes[1].fn = None
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
                           width=cur_width, chain_ops=1, fn=_rt,
                           transfer="roundtrip")
        elif op == "affine":
            scale = float(rng.choice([-1.5, -0.5, 0.5, 1.25]))
            offset = float(rng.choice([-0.25, 0.0, 0.5]))
            fn = _affine_fn(scale, offset)
            cursor = g.add("map", preds=[cursor], name=f"a{i}",
                           width=cur_width, chain_ops=1, fn=fn,
                           transfer="affine",
                           payload={"scale": scale, "offset": offset})
        elif op == "clip":
            fn = _clip_fn(-1.0, 1.0)
            cursor = g.add("map", preds=[cursor], name=f"c{i}",
                           width=cur_width, chain_ops=1, fn=fn,
                           transfer="clip", payload={"clip": (-1.0, 1.0)})
        elif op == "relu":
            cursor = g.add("map", preds=[cursor], name=f"re{i}",
                           width=cur_width, chain_ops=1, fn=relu, transfer="relu")
        elif op == "tanh":
            cursor = g.add("map", preds=[cursor], name=f"t{i}",
                           width=cur_width, chain_ops=1, fn=tanh, transfer="tanh")
        elif op == "dot":
            w = FIX8.roundtrip(rng.uniform(-1.0, 1.0, size=cur_width))
            bank = g.add("const", name=f"w{i}", weight_values=int(w.size),
                         payload={"values": w})
            fn = _bank_dot_fn(w)
            cursor = g.add("dot", preds=[cursor, bank], name=f"d{i}",
                           parallel=1, width=cur_width, chain_ops=1,
                           reduce_op="sum", fn=fn,
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
