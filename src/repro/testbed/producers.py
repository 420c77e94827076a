"""Workload producers feeding the always-on inference service.

Trace replay and synthetic arrival generation become *producers*: they
slice a packet trace into chunks and submit them to an
:class:`~repro.runtime.InferenceService` on an arrival schedule, so
packet generation overlaps scoring end-to-end.  Two drive modes:

* :func:`replay_virtual` — arrivals advance a
  :class:`~repro.runtime.VirtualClock`; combined with manual
  :meth:`~repro.runtime.InferenceService.pump` cadence this is fully
  deterministic, which is what the exact-accounting property tests need.
* :func:`replay_wall` — arrivals sleep on the wall clock against a
  started (threaded) service, so the dispatcher thread and the producer
  race for real (``examples/quickstart.py`` and
  ``tests/test_serving.py::TestLifecycle::test_threaded_service_round_trip``).

:func:`bursty_schedule` builds the seeded heavy-tailed arrival process:
Poisson background traffic with periodic burst episodes where gaps shrink
by ``burst_factor``, interleaving clients in a seeded shuffle — bounded
queues and shed/defer policies only show their worth under bursts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..datasets.packets import TraceColumns
from ..runtime import Admission, InferenceService
from ..runtime.sharded import as_trace_columns

__all__ = [
    "Arrival",
    "bursty_schedule",
    "chunk_columns",
    "replay_virtual",
    "replay_wall",
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled submit: client ``client`` offers its ``chunk``-th chunk."""

    time_s: float
    client: str
    chunk: int


def chunk_columns(trace, chunk_size: int) -> list[TraceColumns]:
    """A trace as a list of request-sized columnar chunks (arrival order)."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    columns = as_trace_columns(trace)
    order = np.argsort(columns.times, kind="stable")
    if not np.array_equal(order, np.arange(columns.n)):
        columns = columns.take(order)
    return [
        columns.slice(slice(start, min(start + chunk_size, columns.n)))
        for start in range(0, columns.n, chunk_size)
    ]


def bursty_schedule(
    counts: dict[str, int],
    *,
    seed: int = 0,
    base_rate: float = 200.0,
    burst_factor: float = 10.0,
    burst_every: int = 24,
    burst_len: int = 8,
) -> list[Arrival]:
    """A seeded bursty multi-tenant arrival schedule.

    ``counts`` maps client name to how many chunks it will offer.  Gaps
    are exponential at ``base_rate`` requests/s; every ``burst_every``
    arrivals a burst episode of ``burst_len`` arrivals runs at
    ``burst_factor`` times the base rate.  Client order is a seeded
    shuffle, so the same seed replays the identical schedule.
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if burst_factor < 1:
        raise ValueError("burst_factor must be >= 1")
    rng = np.random.default_rng(seed)
    names = [name for name, count in counts.items() for __ in range(count)]
    order = rng.permutation(len(names))
    n = len(names)
    gaps = rng.exponential(1.0 / base_rate, size=n)
    if burst_every > 0 and burst_len > 0:
        position = np.arange(n) % (burst_every + burst_len)
        gaps[position >= burst_every] /= burst_factor
    times = np.cumsum(gaps)
    next_chunk = dict.fromkeys(counts, 0)
    schedule = []
    for i in range(n):
        client = names[order[i]]
        schedule.append(Arrival(float(times[i]), client, next_chunk[client]))
        next_chunk[client] += 1
    return schedule


def replay_virtual(
    service: InferenceService,
    schedule: list[Arrival],
    chunks: dict[str, list[TraceColumns]],
    clock,
    *,
    pump_every: int | None = None,
    deadline_s: float | None = None,
) -> list[Admission]:
    """Replay ``schedule`` in virtual time; returns one verdict per arrival.

    ``clock`` is the service's :class:`~repro.runtime.VirtualClock`; it is
    advanced to each arrival's timestamp before submitting.  With
    ``pump_every=k`` the service pumps one request after every ``k``-th
    arrival (else the caller pumps); either way the run is deterministic.
    """
    admissions: list[Admission] = []
    for i, arrival in enumerate(schedule):
        clock.advance_to(arrival.time_s)
        admissions.append(
            service.submit(
                arrival.client,
                chunks[arrival.client][arrival.chunk],
                deadline_s=deadline_s,
            )
        )
        if pump_every and (i + 1) % pump_every == 0:
            service.pump(max_requests=1)
    return admissions


def replay_wall(
    service: InferenceService,
    schedule: list[Arrival],
    chunks: dict[str, list[TraceColumns]],
    *,
    deadline_s: float | None = None,
) -> list[Admission]:
    """Replay ``schedule`` against the wall clock (service must be started).

    Sleeps until each arrival's offset from the replay start, then
    submits; the service's dispatcher thread drains concurrently, so this
    measures real producer/consumer overlap.
    """
    admissions: list[Admission] = []
    start = time.monotonic()
    for arrival in schedule:
        delay = arrival.time_s - (time.monotonic() - start)
        if delay > 0:
            time.sleep(delay)
        admissions.append(
            service.submit(
                arrival.client,
                chunks[arrival.client][arrival.chunk],
                deadline_s=deadline_s,
            )
        )
    return admissions
