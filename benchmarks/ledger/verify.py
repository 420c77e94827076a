"""Identity checks against the in-process oracle, and the simulated-time digest.

The oracle is one fresh :class:`~repro.pisa.TaurusPipeline` per app,
replaying chunks in the order the stack scored them.  Every phase's
results and merged register / queue / counter state must equal it bit for
bit, and a 64-packet prefix must equal the scalar ``process`` loop.

Modeled (simulated) statistics — ``latencies_ns``, ``last_drain_ns``, block
issue cycles, reconfiguration counts — are not host time.  They are hashed
into ``sim_digest`` instead of being reported as metrics: two commits a
host-speed claim compares must print the same digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.pisa import from_record
from repro.runtime import merge_pipeline_state

from workloads import Inputs, oracle_pipelines

RESULT_FIELDS = ("order", "times", "decisions", "ml_scores", "latencies_ns", "bypassed")


def results_equal(got, want) -> bool:
    """Two ``TracePipelineResult`` objects, bit for bit (NaN == NaN)."""
    return (
        all(
            np.array_equal(getattr(got, f), getattr(want, f), equal_nan=f == "ml_scores")
            for f in RESULT_FIELDS
        )
        and got.aggregates.keys() == want.aggregates.keys()
        and all(
            np.array_equal(got.aggregates[k], want.aggregates[k]) for k in want.aggregates
        )
    )


def deep_equal(got, want) -> bool:
    """Nested dict / list / ndarray / scalar equality (merged pipeline state)."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(deep_equal(got[k], want[k]) for k in want)
        )
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(deep_equal(g, w) for g, w in zip(got, want))
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        return np.array_equal(got, want)
    return got == want


class Oracle:
    """Fresh single pipelines; ``replay`` advances them chunk by chunk."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.pipes = oracle_pipelines(inputs)

    def replay(self, app: str, columns):
        return self.pipes[app].process_trace_batch(
            columns, chunk_size=self.inputs.workload.chunk
        )

    def state(self) -> dict[str, dict]:
        states = {}
        for app, pipe in self.pipes.items():
            state = merge_pipeline_state([pipe], pipe.arbiter._turn)
            if self.inputs.workload.multi_app:
                # A lane's block is time-shared, so MultiAppFabric.app_state
                # leaves block totals out of the per-app view.
                state.pop("block_packets")
                state.pop("block_issue_cycles")
                state.pop("arbiter_turn")  # see Backend.state
            states[app] = state
        return states


def pass_mismatches(oracle: Oracle, results: dict, state: dict, traces: dict) -> int:
    """Failed identity checks of one whole-trace pass (results, then state)."""
    bad = sum(
        not results_equal(results[app], oracle.replay(app, traces[app])) for app in traces
    )
    return bad + (not deep_equal(state, oracle.state()))


def served_mismatches(oracle: Oracle, served: list, state: dict | None) -> int:
    """Failed identity checks of per-request results.

    ``served`` is ``[(seq, app, columns, result)]``; the oracle replays in
    ``seq`` order, which is the order the service scored them.
    """
    bad = sum(
        not results_equal(result, oracle.replay(app, columns))
        for __, app, columns, result in sorted(served, key=lambda item: item[0])
    )
    if state is not None:
        bad += not deep_equal(state, oracle.state())
    return bad


def scalar_prefix_mismatches(inputs: Inputs) -> int:
    """The batched path against scalar ``TaurusPipeline.process`` on the
    first packets of each trace (decision, score, latency, bypass)."""
    bad = 0
    scalar = oracle_pipelines(inputs)
    batched = Oracle(inputs)
    for app, records in inputs.prefix_records.items():
        result = batched.replay(app, inputs.traces[app].slice(slice(0, len(records))))
        for i, record in enumerate(records):
            one = scalar[app].process(from_record(record))
            score = np.nan if one.ml_score is None else one.ml_score
            bad += not (
                one.decision == result.decisions[i]
                and np.array_equal(score, result.ml_scores[i], equal_nan=True)
                and one.latency_ns == result.latencies_ns[i]
                and one.bypassed == result.bypassed[i]
            )
    return bad


class SimDigest:
    """Running hash of modeled-time statistics, in a fixed order."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=8)

    def add(self, label: str, *values) -> None:
        self._hash.update(label.encode())
        for value in values:
            if isinstance(value, np.ndarray):
                self._hash.update(np.ascontiguousarray(value).tobytes())
            else:
                self._hash.update(repr(value).encode())

    def add_pass(self, label: str, results: dict, backend) -> None:
        """One whole-trace pass: per-packet modeled latencies, the modeled
        parallel drain, block busy cycles and program swaps."""
        for app in sorted(results):
            self.add(f"{label}.{app}", results[app].latencies_ns)
        busy = [
            state.get("block_issue_cycles", 0) for state in backend.state().values()
        ]
        self.add(label, backend.drain_ns, busy, backend.reconfigurations)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
