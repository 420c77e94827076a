"""What ``repro.analysis`` catches: seeded bugs in the shipped sources, as a table.

Each row is ``(file under src/repro, old text, new text, check ids that
fire)``.  ``old`` must occur exactly once in the shipped file, so the table
breaks loudly when the code moves; the edit is applied to an in-memory copy
and the analyser run over it the way ``python -m repro.analysis`` runs it
over the tree.  ``runtime/`` rows: the concurrency analysis over every
``runtime/*.py`` plus the fork lint on the edited file.
``mapreduce/frontend.py`` rows: the edited module is exec'd as a throw-away,
the named lowering run, and the graph verified, probed and range-analysed
(a ``ValueError`` from the lowering's own ``_verified`` gate counts as its
check ids).  What fires is compared exactly.

A row with ``missed=`` is a bug the analyser does not see: it asserts that
**nothing** of warning severity fires, so it flips loudly the day something
starts catching it.  ``missed`` names the tier-1 test that fails on the
mutant instead (run by hand when the row was seeded), or says that nothing
does — those are ROADMAP items 4 / 6's first customers.  This file only
measures; it adds, changes and deletes no check.

Two seeded edits turned out to be equivalent mutants and are not rows:
``activation_graph.clip_addr`` removed (Q3.4 cannot leave +-8), and SVM
``scale_gamma``'s *callable* widened to clip at -16 without declaring it
(``exp(-8)`` already rounds to 0 in Q3.4) — ``ranges.py`` reads a node's
declared payload, never its callable, so only the declared twin of that
edit (``svm-declared-clip``) is visible to it.
"""

import types
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    CHECKS,
    Severity,
    analyze_concurrency_sources,
    analyze_ranges,
    lint_source,
    verify_graph,
)
from repro.core import TaurusConfig
from repro.ml import indigo_lstm

SRC = Path(repro.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
FRONTEND = "mapreduce/frontend.py"
NOTHING = "nothing"

ACK = ("with self.cv:\n            entry = self.pending.popleft()\n"
       "            self.cv.notify_all()\n")
GATE = ("            while len(run.pending) >= run.pool.window and not self.dead:\n"
        "                run.cv.wait(0.05)\n")
CLIPPED_GATES = "w_gates = fmt.roundtrip(np.clip(lstm.w_gates, fmt.min_value, fmt.max_value))"


def row(name, file, old, new, *fires, lowering=None, missed=None):
    assert bool(fires) != bool(missed), name
    return pytest.param(file, old, new, set(fires), lowering, missed, id=name)


ROWS = [
    # ---- caught, runtime/ ------------------------------------------------
    row("tally-scored-unlocked", "runtime/sharded.py",
        "with self._lock:\n            slot = self._open",
        "if True:\n            slot = self._open",
        "rt-racy-field"),
    row("requests-unknown-kind", "runtime/sharded.py",
        'yield ("chunk", ', 'yield ("chunk2", ', "rt-frame-unconsumed"),
    row("ack-pops-outside-cv", "runtime/pool.py", ACK,
        "entry = self.pending.popleft()\n        with self.cv:\n            self.cv.notify_all()\n",
        "rt-ack-window-order", "rt-racy-field"),
    row("ack-notifies-outside-cv", "runtime/pool.py", ACK,
        "with self.cv:\n            entry = self.pending.popleft()\n        self.cv.notify_all()\n",
        "rt-cv-notify-unheld"),
    row("ack-pops-without-notify", "runtime/pool.py", ACK,
        "with self.cv:\n            entry = self.pending.popleft()\n", "rt-ack-window-order"),
    row("window-append-outside-cv", "runtime/pool.py",
        "            run.pending.append((ordinal, kind, payload))",
        "        run.pending.append((ordinal, kind, payload))",
        "rt-ack-window-order", "rt-racy-field"),
    row("window-wait-if-not-while", "runtime/pool.py",
        "while len(run.pending) >= run.pool.window", "if len(run.pending) >= run.pool.window",
        "rt-cv-wait-no-predicate"),
    row("supervise-head-outside-cv", "runtime/pool.py",
        "with run.cv:\n                        head = (",
        "if True:\n                        head = (",
        "rt-ack-window-order", "rt-racy-field"),
    row("slot-queue-unbounded", "runtime/pool.py",
        "queue.Queue(maxsize=_SLOT_QUEUE_DEPTH)", "queue.Queue()", "rt-unbounded-queue"),
    row("slot-close-bare-join", "runtime/pool.py",
        "self._writer.join(max(0.0, deadline - time.monotonic()))\n        if self._writer",
        "self._writer.join()\n        if self._writer", "rt-unbounded-close-join"),
    row("slot-recv-without-deadline", "runtime/pool.py",
        "return self.worker.recv(hang_timeout)", "return self.worker.recv()", "rt-unbounded-recv"),
    row("fork-without-flushes", "runtime/executors.py",
        "        sys.stdout.flush()\n        sys.stderr.flush()\n", "", "rt-fork-flush"),
    row("fork-child-sys-exit", "runtime/executors.py",
        "os._exit(status)", "sys.exit(status)", "rt-fork-child-exit"),
    row("fork-parent-keeps-request-read", "runtime/executors.py",
        "        os.close(request_read)\n        os.close(response_write)",
        "        os.close(response_write)", "rt-pipe-ownership"),
    # rt-ack-window-order: the analyser takes the latency deques for ack windows.
    row("service-delivers-unlocked", "runtime/service.py",
        "with self._lock:\n                self._deliver(waiting.pop(index)",
        "if True:\n                self._deliver(waiting.pop(index)",
        "rt-racy-field", "rt-ack-window-order"),
    row("service-close-notifies-unheld", "runtime/service.py",
        "            self._work.notify_all()\n            thread = self._thread\n"
        "            self._thread = None\n",
        "            thread = self._thread\n            self._thread = None\n"
        "        self._work.notify_all()\n", "rt-cv-notify-unheld"),
    # ---- caught, mapreduce/frontend.py -----------------------------------
    row("lstm-kernel-state-key", FRONTEND, 'state["h"], state["c"] = fmt.dequantize',
        'state["h"], state["cell"] = fmt.dequantize', "ir-batch-divergence", lowering="lstm"),
    row("raw-domain-table-one-short", FRONTEND, "np.arange(fmt.raw_min, fmt.raw_max + 1)",
        "np.arange(fmt.raw_min, fmt.raw_max)", "ir-probe-failure", lowering="dnn"),
    row("dnn-kernel-index-off-by-one", FRONTEND, "index -= raw_min\n", "index -= raw_min + 1\n",
        "ir-batch-divergence", lowering="dnn"),
    row("lstm-cell-tanh-table-rounded", FRONTEND, "_raw_domain_table(fmt, tanh_piecewise)\n",
        "_raw_domain_table(fmt, tanh_piecewise, fmt.roundtrip)\n",
        "ir-batch-divergence", lowering="lstm"),
    row("dnn-kernel-input-unclipped", FRONTEND, "quantize_input = layers[0].in_fmt.quantize\n",
        "quantize_input = lambda x: np.rint(x * layers[0].in_fmt.scale)\n",
        "ir-probe-failure", lowering="dnn"),
    row("dnn-gather-one-too-wide", FRONTEND, 'name=f"gather{i}", width=out_units\n',
        'name=f"gather{i}", width=out_units + 1\n', "ir-gather-width", lowering="dnn"),
    row("dnn-output-skips-activation", FRONTEND, '"output", preds=[cursor], name="score"',
        '"output", preds=[dot], name="score"',
        "ir-dead-node", "ir-batch-divergence", lowering="dnn"),
    row("svm-declared-clip", FRONTEND, '"clip": (-8.0, 0.0)', '"clip": (-16.0, 0.0)',
        "an-lut-oob", lowering="svm"),
    # ---- missed by the analyser, caught by the tests that own the code ---
    row("window-gate-deleted", "runtime/pool.py", GATE, "",
        missed="tests/test_serving.py::TestBatchEqualsOneAtATime"
               "::test_faults_past_ordinal_zero_are_transparent[3]"),
    # The 503-row kernel probe never saturates a cell.
    row("lstm-cell-rint-without-clip", FRONTEND,
        "                round_clip(c)\n", "                np.rint(c, out=c)\n", lowering="lstm",
        missed="tests/test_mapreduce_batch.py::TestLstmKernelProperty"
               "::test_random_lstms_and_windows"),
    row("lstm-gate-weights-x40-unclipped", FRONTEND, CLIPPED_GATES,
        "w_gates = lstm.w_gates * 40.0", lowering="lstm",
        missed="tests/test_mapreduce_batch.py::TestLstmFixedPointEdges"
               "::test_gate_ties_round_half_to_even"),
    # ---- missed by both: known misses ------------------------------------
    # ``pump`` holds _dispatch_lock and takes _lock inside ``_pop_batch``: a real
    # AB/BA inversion, but rt-lock-order pairs only ``with`` blocks nested in
    # one function, so an inversion across a call passes.
    row("service-close-lock-order", "runtime/service.py",
        "with self._lock:\n            self._closed = True",
        "with self._lock, self._dispatch_lock:\n            self._closed = True", missed=NOTHING),
    # Heartbeat and response frames can interleave on the pipe.
    row("serve-sends-without-tx-lock", "runtime/executors.py",
        "with tx_lock:\n                write_frame(tx, blob)",
        "if True:\n                write_frame(tx, blob)", missed=NOTHING),
    row("faultplan-take-unlocked", "runtime/faults.py",
        "with self._lock:\n            event = self._events.get(key)",
        "if True:\n            event = self._events.get(key)", missed=NOTHING),
    # Benign: the writer's 50 ms ``cv.wait`` poll sees ``dead`` anyway.
    row("supervise-crash-without-notify", "runtime/pool.py",
        "                    with run.cv:\n                        run.cv.notify_all()\n"
        "                    exc.last_acked", "                    exc.last_acked",
        missed=NOTHING),
]


@pytest.fixture(scope="module")
def models(quantized_dnn, trained_svm):
    return {"dnn": quantized_dnn, "svm": trained_svm, "lstm": indigo_lstm(seed=0)}


def _runtime_findings(edited: dict[str, str]) -> list:
    """Concurrency analysis over ``runtime/*.py`` (``edited``: file -> text
    replacing it) plus the fork lint on each edited file — on every file
    when nothing is edited."""
    sources = {f"runtime/{path.name}": path.read_text()
               for path in sorted((SRC / "runtime").glob("*.py"))}
    linted = edited or sources
    sources.update(edited)
    return analyze_concurrency_sources([(str(SRC / f), text) for f, text in sources.items()]) + [
        finding for file, text in linted.items() for finding in lint_source(text, str(SRC / file))
    ]


def _graph_findings(text: str, lowering: str, models) -> list:
    """``text`` exec'd as a throw-away frontend, ``lowering`` run and checked."""
    module = types.ModuleType("repro.mapreduce.frontend_under_test")
    module.__package__ = "repro.mapreduce"
    exec(compile(text, str(SRC / FRONTEND), "exec"), module.__dict__)
    try:
        graph = getattr(module, f"{lowering}_graph")(models[lowering])
    except ValueError as refused:
        # The lowering's own ``_verified`` gate: its message lists the findings;
        # a catalog spec carries the id and severity ``_fired`` reads.
        return [spec for check, spec in CHECKS.items() if f"[{check}]" in str(refused)]
    return verify_graph(graph, config=TaurusConfig()) + analyze_ranges(graph).diagnostics


def _fired(findings) -> set[str]:
    return {f.check_id for f in findings if f.severity >= Severity.WARNING}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a mutant may overflow or index with NaN
@pytest.mark.parametrize("file, old, new, fires, lowering, missed", ROWS)
def test_seeded_bug(file, old, new, fires, lowering, missed, models):
    text = (SRC / file).read_text()
    assert text.count(old) == 1, "the shipped source moved: re-seed this row"
    text = text.replace(old, new)
    if lowering:
        findings = _graph_findings(text, lowering, models)
    else:
        findings = _runtime_findings({file: text})
    assert _fired(findings) == fires
    if missed and missed != NOTHING:  # the test on record still exists
        path, __, test = missed.partition("::")
        assert test.split("::")[-1].partition("[")[0] in (REPO / path).read_text()


def test_unedited_sources_are_clean(models):
    assert not _fired(_runtime_findings({}))
    for lowering in models:
        assert not _fired(_graph_findings((SRC / FRONTEND).read_text(), lowering, models))


def test_totals():
    """24 caught by the analyser, 3 more by the tests that own the code, 4 by nothing."""
    missed = [param.values[5] for param in ROWS]
    by_nothing, by_analyser = missed.count(NOTHING), missed.count(None)
    assert (by_analyser, len(ROWS) - by_analyser - by_nothing, by_nothing) == (24, 3, 4)
