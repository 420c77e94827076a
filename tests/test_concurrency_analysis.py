"""Tests for the one runtime pass (``repro.analysis.concurrency``).

What each rt-* check catches in the shipped runtime is
``tests/test_analysis_yield.py``; the fixtures here pin the edges no
seeded-bug row reaches (messages, anchor lines, waiver syntax, clean
shapes, branch joins, lock-typed parameters).  The lockset
lattice contract (join = intersection = a proper meet, fixpoint
independent of worklist order and equal to the all-paths intersection)
is pinned with hypothesis property tests over ``must_fixpoint`` on
randomly generated branch/merge graphs.  The runtime sources are
warning-clean, and every waiver there is justified inline and still
live: removing it brings its finding back.
"""

import json
import re
import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_concurrency, analyze_concurrency_sources
from repro.analysis.__main__ import main
from repro.analysis.cfg import CFG, TOP_SET, CFGNode, join_must, must_fixpoint
from repro.analysis.diagnostics import CHECKS, Severity


def run_analysis(src: str):
    return analyze_concurrency_sources(
        [("snippet.py", textwrap.dedent(src))]
    )


def check_ids(src: str) -> set:
    return {d.check_id for d in run_analysis(src)}


class TestRacyField:
    TRIGGER = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0
                self._thread = threading.Thread(target=self._work)

            def _work(self):
                while True:
                    self.count += 1

            def read(self):
                return self.count
    """

    CLEAN = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0
                self._thread = threading.Thread(target=self._work)

            def _work(self):
                while True:
                    with self._lock:
                        self.count += 1

            def read(self):
                with self._lock:
                    return self.count
    """

    def test_trigger(self):
        diags = run_analysis(self.TRIGGER)
        racy = [d for d in diags if d.check_id == "rt-racy-field"]
        assert len(racy) == 1
        assert "Counter.count" in racy[0].message
        assert "thread:_work" in racy[0].message
        # Anchored at the first unlocked write so one waiver retires it.
        assert racy[0].line is not None

    def test_clean(self):
        assert "rt-racy-field" not in check_ids(self.CLEAN)

    def test_init_writes_are_happens_before(self):
        # __init__ runs before any spawn; its bare writes never race.
        assert "rt-racy-field" not in check_ids("""
            import threading

            class Quiet:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
        """)

    def test_noqa_with_justification_waives(self):
        waived = self.TRIGGER.replace(
            "self.count += 1",
            "self.count += 1  # noqa: rt-racy-field - test waiver, "
            "counter is advisory",
        )
        assert "rt-racy-field" not in check_ids(waived)


class TestInterproceduralLocksets:
    def test_lock_held_through_helper_call_is_clean(self):
        assert not check_ids("""
            import threading

            class Helper:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0
                    threading.Thread(target=self._work).start()

                def _work(self):
                    with self._lock:
                        self._bump()

                def _bump(self):
                    self.value += 1

                def read(self):
                    with self._lock:
                        return self.value
        """)

    def test_unlocked_helper_path_triggers(self):
        assert "rt-racy-field" in check_ids("""
            import threading

            class Helper:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0
                    threading.Thread(target=self._work).start()

                def _work(self):
                    with self._lock:
                        self._bump()

                def _bump(self):
                    self.value += 1

                def poke(self):
                    self._bump()
        """)

    def test_branch_join_drops_lock(self):
        # The lockset after an `if` is the *meet* of both arms: a lock
        # acquired in only one arm is not held at the join.
        assert "rt-racy-field" in check_ids("""
            import threading

            class Branchy:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0
                    threading.Thread(target=self._work).start()

                def _work(self):
                    with self._lock:
                        self.value = 1

                def read(self, flag):
                    if flag:
                        with self._lock:
                            pass
                    return self.value
        """)


class TestLocksetInconsistent:
    TRIGGER = """
        import threading

        class Split:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
                self.value = 0
                threading.Thread(target=self._work).start()

            def _work(self):
                with self._a:
                    self.value += 1

            def read(self):
                with self._b:
                    return self.value
    """

    def test_trigger(self):
        diags = run_analysis(self.TRIGGER)
        found = [d for d in diags if d.check_id == "rt-lockset-inconsistent"]
        assert len(found) == 1
        assert "no common" in found[0].message

    def test_clean(self):
        assert not check_ids(self.TRIGGER.replace("self._b:", "self._a:"))


class TestLockOrderLint:
    """Edges come from the must-lockset at each acquisition, so an
    inversion reached through a helper call counts."""

    INVERTED = """
        import threading

        class Service:
            def __init__(self):
                self._lock = threading.Lock()
                self._dispatch_lock = threading.Lock()

            def pump(self):
                with self._dispatch_lock:
                    self._pop()

            def _pop(self):
                with self._lock:
                    pass

            def close(self):
                with self._lock, self._dispatch_lock:
                    pass
    """

    def test_inversion_trigger(self):
        # ``pump`` reaches ``_lock`` through ``_pop``; ``close`` takes both in one
        # ``with``, left to right.
        (found,) = [d for d in run_analysis(self.INVERTED) if d.check_id == "rt-lock-order"]
        # Reported once, at the later of the two sites, naming both.
        assert found.line == 18 and found.severity == Severity.ERROR
        assert "Service.close()" in found.message and "Service._pop()" in found.message

    def test_consistent_order_clean(self):
        consistent = self.INVERTED.replace(
            "with self._lock, self._dispatch_lock:", "with self._dispatch_lock, self._lock:"
        )
        assert not check_ids(consistent)

    def test_condition_over_a_held_lock_is_not_an_inversion(self):
        assert not check_ids("""
            import threading

            class Waits:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._cv = threading.Condition(self._lock)

                def a(self):
                    with self._lock:
                        with self._cv:
                            self._cv.notify_all()

                def b(self):
                    with self._cv:
                        with self._lock:
                            self._cv.notify_all()
        """)

    def test_non_lock_names_ignored(self):
        assert not check_ids("""
            def f(conn, handle):
                with conn:
                    with handle:
                        pass

            def g(conn, handle):
                with handle:
                    with conn:
                        pass
        """)

    def test_noqa_waives(self):
        waived = self.INVERTED.replace(
            "with self._lock, self._dispatch_lock:",
            "with self._lock, self._dispatch_lock:  # noqa: rt-lock-order - test waiver",
        )
        assert not check_ids(waived)

    #: Free functions: a lock-typed parameter is keyed by its name within
    #: its module, so ``f`` and ``g`` take the same two locks.
    FREE = (
        "import threading\n"
        "def f(a_lock: threading.Lock, b_lock: threading.Lock):\n"
        "    with a_lock:\n"
        "        with b_lock:\n"
        "            pass\n"
        "def g(a_lock: threading.Lock, b_lock: threading.Lock):\n"
        "    with b_lock:\n"
        "        with a_lock:\n"
        "            pass\n"
    )

    def test_free_function_inversion_trigger(self):
        (found,) = [d for d in run_analysis(self.FREE) if d.check_id == "rt-lock-order"]
        # Reported once, at the later of the two orderings, naming both.
        assert found.line == 8
        assert "f()" in found.message and "g()" in found.message

    def test_multi_item_with_records_order(self):
        # `with a, b:` acquires left to right — inverting it elsewhere
        # is the same deadlock.
        multi = self.FREE.replace(
            "    with a_lock:\n        with b_lock:\n            pass\n",
            "    with a_lock, b_lock:\n        pass\n", 1,
        )
        (found,) = [d for d in run_analysis(multi) if d.check_id == "rt-lock-order"]
        assert "f()" in found.message and "g()" in found.message


class TestConditionDiscipline:
    def test_wait_in_while_is_clean(self):
        assert not check_ids("""
            import threading

            class Waits:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)
                    self.ready = False

                def good(self):
                    with self._cv:
                        while not self.ready:
                            self._cv.wait(timeout=0.05)
        """)

    def test_notify_unheld_triggers(self):
        diags = run_analysis("""
            import threading

            class Notifies:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)

                def bad(self):
                    self._cv.notify_all()
        """)
        found = [d for d in diags if d.check_id == "rt-cv-notify-unheld"]
        assert len(found) == 1
        assert found[0].severity == Severity.ERROR

    def test_notify_under_condition_is_clean(self):
        assert "rt-cv-notify-unheld" not in check_ids("""
            import threading

            class Notifies:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)

                def good(self):
                    with self._cv:
                        self._cv.notify_all()
        """)

    def test_notify_under_associated_lock_is_clean(self):
        # Condition(self._lock) shares its lock: holding the lock *is*
        # holding the condition for notify purposes.
        assert "rt-cv-notify-unheld" not in check_ids("""
            import threading

            class Notifies:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cv = threading.Condition(self._lock)

                def good(self):
                    with self._lock:
                        self._cv.notify_all()
        """)


class TestFrameProtocol:
    TRIGGER = """
        def produce(stream):
            for item in stream:
                yield ("chunk", item)

        def consume(kind, payload):
            if kind == "other":
                return payload
            raise RuntimeError(kind)
    """

    def test_trigger_both_directions(self):
        diags = run_analysis(self.TRIGGER)
        found = [d for d in diags if d.check_id == "rt-frame-unconsumed"]
        kinds = {m for d in found for m in re.findall(r"'(\w+)'", d.message)}
        assert "chunk" in kinds   # produced, never consumed
        assert "other" in kinds   # consumed, never produced

    def test_clean(self):
        assert "rt-frame-unconsumed" not in check_ids(
            self.TRIGGER.replace('"other"', '"chunk"')
        )

    def test_responses_are_a_separate_direction(self):
        # A response kind consumed via `status ==` must be produced via
        # _send-style tuples, not request-side sends.
        assert "rt-frame-unconsumed" not in check_ids("""
            def worker(_send, results):
                _send(("abort", None))

            def collector(frame):
                status, payload = frame
                if status == "abort":
                    return None
                return payload
        """)

    def test_attribute_state_machines_are_ignored(self):
        # `self.status == ...` is an unrelated state machine (admission
        # verdicts), not frame dispatch.
        assert "rt-frame-unconsumed" not in check_ids("""
            class Admission:
                def __init__(self, status):
                    self.status = status

                @property
                def accepted(self):
                    return self.status == "accepted"
        """)


ACK_WINDOW_PRELUDE = """
    import threading
    from collections import deque

    class Run:
        def __init__(self):
            self.lock = threading.Lock()
            self.cv = threading.Condition(self.lock)
            self.pending = deque()
"""


class TestAckWindowOrder:
    def test_disciplined_window_is_clean(self):
        assert "rt-ack-window-order" not in check_ids(ACK_WINDOW_PRELUDE + """
            def good(self, worker, item):
                with self.cv:
                    self.pending.append(item)
                    worker.send(item)

            def ack(self):
                with self.cv:
                    entry = self.pending.popleft()
                    self.cv.notify_all()
                    return entry
        """)


# ----------------------------------------------------------------------
# The lattice contract, property-tested
# ----------------------------------------------------------------------
LOCKS = ("a", "b", "c", "d")
locksets = st.frozensets(st.sampled_from(LOCKS))
locksets_or_top = st.one_of(st.none(), locksets)


class TestJoinIsAMeet:
    @given(locksets_or_top, locksets_or_top)
    def test_commutative(self, x, y):
        assert join_must(x, y) == join_must(y, x)

    @given(locksets_or_top, locksets_or_top, locksets_or_top)
    def test_associative(self, x, y, z):
        assert join_must(join_must(x, y), z) == join_must(x, join_must(y, z))

    @given(locksets_or_top)
    def test_idempotent(self, x):
        assert join_must(x, x) == x

    @given(locksets)
    def test_top_is_identity(self, x):
        assert join_must(TOP_SET, x) == x
        assert join_must(x, TOP_SET) == x

    @given(locksets, locksets)
    def test_meet_is_a_lower_bound(self, x, y):
        met = join_must(x, y)
        assert met <= x and met <= y


@st.composite
def graph_problems(draw, acyclic=False):
    """A random branch/merge graph with acquire/release effects per node;
    ``acyclic`` keeps every edge forward (no loop back-edges)."""
    n = draw(st.integers(min_value=2, max_value=7))
    succs = {}
    for i in range(n):
        targets = range(i + 1, n) if acyclic else range(n)
        succs[i] = sorted(draw(st.sets(st.sampled_from(targets), max_size=3))) if targets else []
    effects = {i: (draw(locksets), draw(locksets)) for i in range(n)}
    init = draw(locksets)
    return n, succs, effects, init


def _solve(succs, effects, init, shuffle=None):
    """``must_fixpoint`` over the graph, node 0 the entry; ``shuffle``
    permutes every successor list first, which reorders the worklist."""
    nodes = [CFGNode("stmt") for _ in succs]
    for i, node in enumerate(nodes):
        node.succs = [nodes[j] for j in succs[i]]
        if shuffle is not None:
            shuffle(node.succs)

    def transfer(node, state):
        acquires, releases = effects[node.index]
        return (state | acquires) - releases

    solved = must_fixpoint(CFG(nodes[0], nodes[-1], nodes), init, transfer)
    return {node.index: state for node, state in solved.items()}


def _all_paths(succs, entry, target, limit=5000):
    """Every entry→target path in a DAG (node sequences)."""
    paths = []
    stack = [(entry, [entry])]
    while stack and len(paths) < limit:
        node, path = stack.pop()
        if node == target:
            paths.append(path)
            continue
        for succ in succs.get(node, ()):
            stack.append((succ, path + [succ]))
    return paths


class TestFixpointIsPathIntersection:
    @settings(max_examples=200, deadline=None)
    @given(graph_problems(acyclic=True))
    def test_in_state_equals_meet_over_all_paths(self, problem):
        n, succs, effects, init = problem
        solved = _solve(succs, effects, init)
        for target in range(n):
            paths = _all_paths(succs, 0, target)
            if not paths:
                assert target not in solved or target == 0
                continue
            expected = None
            for path in paths:
                state = init
                for node in path[:-1]:
                    acquires, releases = effects[node]
                    state = (state | acquires) - releases
                expected = join_must(expected, state)
            assert solved[target] == expected

    @settings(max_examples=200, deadline=None)
    @given(graph_problems(), st.randoms(use_true_random=False))
    def test_worklist_order_is_irrelevant(self, problem, rnd):
        n, succs, effects, init = problem
        baseline = _solve(succs, effects, init)
        for _ in range(3):
            assert _solve(succs, effects, init, shuffle=rnd.shuffle) == baseline

    @settings(max_examples=100, deadline=None)
    @given(graph_problems())
    def test_solution_is_a_fixpoint(self, problem):
        # IN[succ] must be ≤ OUT[node] for every edge: re-applying one
        # transfer step never discovers anything new.
        n, succs, effects, init = problem
        solved = _solve(succs, effects, init)
        for node, state in solved.items():
            acquires, releases = effects[node]
            out = (state | acquires) - releases
            for succ in succs.get(node, ()):
                assert solved[succ] <= out


# ----------------------------------------------------------------------
# CLI integration: default battery, paths mode, SARIF
# ----------------------------------------------------------------------
TRIGGER_FILE = textwrap.dedent("""
    import threading

    class Notifies:
        def __init__(self):
            self._lock = threading.Lock()
            self._cv = threading.Condition(self._lock)

        def bad(self):
            self._cv.notify_all()
""")


class TestCLI:
    def test_paths_mode_runs_concurrency(self, tmp_path, capsys):
        snippet = tmp_path / "snippet.py"
        snippet.write_text(TRIGGER_FILE)
        assert main([str(snippet)]) == 1
        assert "rt-cv-notify-unheld" in capsys.readouterr().out

    def test_sarif_output(self, tmp_path, capsys):
        snippet = tmp_path / "snippet.py"
        snippet.write_text(TRIGGER_FILE)
        assert main(["--format=sarif", str(snippet)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(CHECKS) == rules
        result = next(
            r for r in run["results"] if r["ruleId"] == "rt-cv-notify-unheld"
        )
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("snippet.py")
        assert location["region"]["startLine"] == 10

    def test_sarif_rules_carry_catalog_metadata(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["--format=sarif", str(clean)]) == 0
        doc = json.loads(capsys.readouterr().out)
        rule = next(
            r
            for r in doc["runs"][0]["tool"]["driver"]["rules"]
            if r["id"] == "rt-racy-field"
        )
        assert rule["properties"]["category"] == "concurrency"
        assert rule["defaultConfiguration"]["level"] == "warning"


# ----------------------------------------------------------------------
# The acceptance criterion: the runtime is clean, every waiver justified
# and still live
# ----------------------------------------------------------------------
def _runtime_dir() -> Path:
    import repro.runtime

    return Path(repro.runtime.__file__).resolve().parent


def _runtime_sources() -> dict[str, str]:
    return {str(path): path.read_text() for path in sorted(_runtime_dir().rglob("*.py"))}


#: ``# noqa: <rt-check> - justification``
WAIVER = re.compile(r"# noqa: (rt-[a-z-]+)([^\n]*)")


def _waivers(sources):
    """``(path, lineno, match)`` for every ``# noqa: rt-*`` in ``sources``."""
    for path, text in sources.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            match = WAIVER.search(line)
            if match:
                yield path, lineno, match


class TestRuntimeIsClean:
    def test_runtime_has_no_concurrency_findings(self):
        diags = analyze_concurrency([_runtime_dir()])
        gating = [d for d in diags if d.severity >= Severity.WARNING]
        assert not gating, "\n".join(d.format() for d in gating)

    #: ``# noqa: rt-*`` waivers under ``src/repro/runtime``, pinned so
    #: the count only moves down: a deleted waiver lowers this number in
    #: the same change, a new one fails here — fix the finding instead.
    WAIVERS = 11

    def test_every_waiver_carries_a_justification(self):
        waivers = list(_waivers(_runtime_sources()))
        unjustified = [
            f"{Path(path).name}:{lineno}"
            for path, lineno, match in waivers
            if " - " not in match.group(2)
        ]
        assert not unjustified, unjustified
        assert len(waivers) == self.WAIVERS, (
            f"{len(waivers)} rt-* waivers in the runtime, pinned at "
            f"{self.WAIVERS}: waivers only go down"
        )

    def test_every_waiver_still_fires(self):
        """Removing a waiver brings its check's finding back on that line;
        a waiver that suppresses nothing is dead and must go."""
        sources = _runtime_sources()
        dead = []
        for path, lineno, match in _waivers(sources):
            lines = sources[path].splitlines()
            lines[lineno - 1] = lines[lineno - 1][: match.start()]
            edited = {**sources, path: "\n".join(lines) + "\n"}
            found = analyze_concurrency_sources(list(edited.items()))
            if not any(
                (d.check_id, d.source, d.line) == (match.group(1), path, lineno)
                for d in found
            ):
                dead.append(f"{Path(path).name}:{lineno} {match.group(1)}")
        assert not dead, f"dead waivers: {dead}"
