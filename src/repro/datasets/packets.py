"""Expansion of connection records into packet-level traces.

Section 5.2.2: "We generate labeled packet-level traces ... by expanding
connection-level records to binned packet traces (i.e., each trace element
represents a set of packets) and annotating them with their status
(anomalous or benign).  Flow-size distribution, mixing, and packet fields'
rates of change are sampled from the original traces to create a realistic
workload."

This module turns a :class:`~repro.datasets.nslkdd.ConnectionDataset` into a
time-ordered stream of :class:`PacketRecord` objects suitable for the PISA
pipeline and the end-to-end testbed.  Flows interleave (mixing), packet
sizes follow the connection's byte counts, and arrival times honour an
aggregate offered load in Gbps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .nslkdd import ConnectionDataset

__all__ = [
    "PacketRecord",
    "FlowSpec",
    "PacketTrace",
    "TraceColumns",
    "as_trace_columns",
    "expand_to_packets",
    "in_arrival_order",
]


@dataclass(frozen=True)
class PacketRecord:
    """One packet of a flow, with ground truth attached.

    ``features`` carries the flow's model-ready feature vector (what
    preprocessing MATs will reconstruct on the switch); ``label`` is the
    ground-truth anomaly bit used only for scoring.
    """

    time: float            # arrival time, seconds
    flow_id: int
    five_tuple: tuple      # (src_ip, dst_ip, src_port, dst_port, proto)
    size_bytes: int
    features: np.ndarray
    label: int
    attack_type: int
    seq_in_flow: int


@dataclass
class FlowSpec:
    """Per-flow ground truth used when expanding to packets."""

    flow_id: int
    five_tuple: tuple
    n_packets: int
    mean_size: float
    features: np.ndarray
    label: int
    attack_type: int
    start_time: float


#: Ethernet + IP + TCP/UDP header bytes assumed when splitting a packet's
#: wire size into headers + payload (mirrors ``repro.pisa.packet``).
HEADER_BYTES = 54


@dataclass
class TraceColumns:
    """Structure-of-arrays view of a packet stream.

    The columnar twin of a list of packets: one array per field, aligned by
    position.  This is what the batched PISA pipeline consumes — header
    fields feed the vectorized parser and MAT lookups, ``features`` streams
    through the MapReduce block in ``(B, D)`` chunks, and ``labels`` scores
    the run.  Header values are stored as int64 (wide enough for 32-bit
    fields); ``features`` rows for packets without a feature payload are
    zero with ``has_features`` False.
    """

    times: np.ndarray                      # float64 [N] arrival seconds
    sizes: np.ndarray                      # int64 [N] wire bytes
    payload_len: np.ndarray                # int64 [N]
    headers: dict[str, np.ndarray]         # int64 [N] per header field
    features: np.ndarray | None            # float64 [N, D] (None: no payloads)
    has_features: np.ndarray               # bool [N]
    labels: np.ndarray | None = None       # int64 [N] ground truth
    flow_ids: np.ndarray | None = None     # int64 [N]

    @property
    def n(self) -> int:
        return len(self.times)

    def __len__(self) -> int:
        return self.n

    def header(self, name: str) -> np.ndarray:
        """A header field column (zeros when the field never appears)."""
        col = self.headers.get(name)
        if col is None:
            return np.zeros(self.n, dtype=np.int64)
        return col

    def five_tuple_columns(self) -> tuple[np.ndarray, ...]:
        return tuple(
            self.header(name)
            for name in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")
        )

    def flow_hashes(self) -> np.ndarray:
        """Per-packet uint64 FNV-1a hash of the five-tuple.

        The one place the columnar path hashes flow keys: its callers
        compute it once per trace and take register slots (``hash %
        slots``) and shard ids from it.  Not cached — header columns may
        be edited in place between calls.
        """
        from ..pisa.registers import fnv1a_columns  # local: avoids module cycle

        return fnv1a_columns(self.five_tuple_columns())

    def slice(self, sl: slice) -> "TraceColumns":
        """A zero-copy view of a contiguous packet range."""
        return TraceColumns(
            times=self.times[sl],
            sizes=self.sizes[sl],
            payload_len=self.payload_len[sl],
            headers={name: col[sl] for name, col in self.headers.items()},
            features=None if self.features is None else self.features[sl],
            has_features=self.has_features[sl],
            labels=None if self.labels is None else self.labels[sl],
            flow_ids=None if self.flow_ids is None else self.flow_ids[sl],
        )

    def take(self, order: np.ndarray) -> "TraceColumns":
        """Reindex every column by ``order`` (e.g. a time sort)."""
        return TraceColumns(
            times=self.times[order],
            sizes=self.sizes[order],
            payload_len=self.payload_len[order],
            headers={name: col[order] for name, col in self.headers.items()},
            features=None if self.features is None else self.features[order],
            has_features=self.has_features[order],
            labels=None if self.labels is None else self.labels[order],
            flow_ids=None if self.flow_ids is None else self.flow_ids[order],
        )

    # ------------------------------------------------------------------
    # Shard-aware views (the sharded runtime's partition key)
    # ------------------------------------------------------------------
    def shard_assignments(self, n_shards: int, slots: int) -> np.ndarray:
        """Per-packet shard ids, consistent with the flow-register slots.

        A packet's shard is its FNV-1a five-tuple hash modulo ``slots``
        (the register index the accumulator uses) modulo ``n_shards`` —
        so every packet touching a given register slot, hash-collision
        neighbours included, lands on the same shard and per-flow state
        stays shard-local.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if slots <= 0:
            raise ValueError("slots must be positive")
        slot = self.flow_hashes() % np.uint64(slots)
        return (slot % np.uint64(n_shards)).astype(np.int64)

    def partition(
        self, assignments: np.ndarray, n_parts: int
    ) -> list[tuple[np.ndarray, "TraceColumns"]]:
        """Split into ``(global_indices, columns)`` per part id.

        Each part keeps its packets in original (arrival) order, so a
        stable per-part time sort reproduces the global stable sort's
        relative order within the part.
        """
        assignments = np.asarray(assignments)
        return [
            (indices, self.take(indices))
            for indices in (
                np.flatnonzero(assignments == part) for part in range(n_parts)
            )
        ]

    @classmethod
    def from_packets(cls, packets) -> "TraceColumns":
        """Build columns from pipeline :class:`~repro.pisa.packet.Packet`
        objects (duck-typed: ``headers``/``payload_len``/``arrival_time``/
        ``size_bytes``/``features``/``truth_label``/``flow_id``)."""
        n = len(packets)
        field_names: list[str] = []
        seen = set()
        for p in packets:
            for name in p.headers:
                if name not in seen:
                    seen.add(name)
                    field_names.append(name)
        headers = {
            name: np.fromiter(
                (int(p.headers.get(name, 0)) for p in packets), np.int64, n
            )
            for name in field_names
        }
        has_features = np.fromiter(
            (p.features is not None for p in packets), bool, n
        )
        features = None
        if has_features.any():
            dim = len(next(p.features for p in packets if p.features is not None))
            features = np.zeros((n, dim), dtype=np.float64)
            for i, p in enumerate(packets):
                if p.features is not None:
                    features[i] = p.features
        labels = np.fromiter(
            ((p.truth_label if p.truth_label is not None else -1) for p in packets),
            np.int64,
            n,
        )
        flow_ids = np.fromiter(
            ((p.flow_id if p.flow_id is not None else -1) for p in packets),
            np.int64,
            n,
        )
        return cls(
            times=np.fromiter((p.arrival_time for p in packets), np.float64, n),
            sizes=np.fromiter((p.size_bytes for p in packets), np.int64, n),
            payload_len=np.fromiter((p.payload_len for p in packets), np.int64, n),
            headers=headers,
            features=features,
            has_features=has_features,
            labels=labels,
            flow_ids=flow_ids,
        )


def as_trace_columns(trace) -> TraceColumns:
    """Coerce any accepted trace form to :class:`TraceColumns`.

    A ``TraceColumns`` passes through, anything with a cached ``columns()``
    view (:class:`PacketTrace`) uses it, and a plain packet list is
    columnarized on the fly.
    """
    if isinstance(trace, TraceColumns):
        return trace
    if hasattr(trace, "columns"):
        return trace.columns()
    return TraceColumns.from_packets(list(trace))


def in_arrival_order(columns: TraceColumns) -> tuple[np.ndarray, TraceColumns]:
    """``(order, columns[order])`` for the stable arrival-time sort; columns
    already in order (one monotone check, no sort) come back as they are."""
    times = columns.times
    if (times[1:] >= times[:-1]).all():
        return np.arange(columns.n), columns
    order = np.argsort(times, kind="stable")
    return order, columns.take(order)


@dataclass
class PacketTrace:
    """A time-ordered packet stream plus its flow table.

    ``time_dilation`` > 1 means the materialized packets are a thinned
    representative sample of the real offered stream, with
    timestamps stretched accordingly: each materialized packet stands for
    ``time_dilation`` real packets.  This lets second-scale control-plane
    dynamics run against a tractable packet count while keeping the *real*
    telemetry sampling rate (consumers multiply their per-packet sampling
    probability by the dilation).
    """

    packets: list[PacketRecord]
    flows: list[FlowSpec]
    duration: float
    time_dilation: float = 1.0
    _columns: TraceColumns | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.packets)

    def columns(self) -> TraceColumns:
        """The trace as a cached structure-of-arrays (built once).

        Header fields mirror :func:`repro.pisa.packet.from_record` so the
        batched pipeline sees bit-identical inputs to the scalar loop over
        converted packets: ``urgent_flag`` is 0, ``seq`` is the in-flow
        sequence number, and the payload is the wire size minus the 54
        header bytes (floored at zero).
        """
        if self._columns is None:
            packets = self.packets
            n = len(packets)
            payload = np.fromiter(
                (max(0, p.size_bytes - HEADER_BYTES) for p in packets), np.int64, n
            )
            tuples = [p.five_tuple for p in packets]
            headers = {
                "src_ip": np.fromiter((t[0] for t in tuples), np.int64, n),
                "dst_ip": np.fromiter((t[1] for t in tuples), np.int64, n),
                "src_port": np.fromiter((t[2] for t in tuples), np.int64, n),
                "dst_port": np.fromiter((t[3] for t in tuples), np.int64, n),
                "protocol": np.fromiter((t[4] for t in tuples), np.int64, n),
                "urgent_flag": np.zeros(n, dtype=np.int64),
                "seq": np.fromiter((p.seq_in_flow for p in packets), np.int64, n),
            }
            self._columns = TraceColumns(
                times=np.fromiter((p.time for p in packets), np.float64, n),
                # The pipeline's notion of wire size: headers + payload.
                sizes=payload + HEADER_BYTES,
                payload_len=payload,
                headers=headers,
                features=(
                    np.stack([p.features for p in packets])
                    if n
                    else np.zeros((0, 0), dtype=np.float64)
                ),
                has_features=np.ones(n, dtype=bool),
                labels=np.fromiter((p.label for p in packets), np.int64, n),
                flow_ids=np.fromiter((p.flow_id for p in packets), np.int64, n),
            )
        return self._columns


def _five_tuple(rng: np.random.Generator, protocol: int) -> tuple:
    return (
        int(rng.integers(0, 2**32)),
        int(rng.integers(0, 2**32)),
        int(rng.integers(1024, 65535)),
        int(rng.choice([80, 443, 22, 53, 8080, 3306])),
        protocol,
    )


def expand_to_packets(
    dataset: ConnectionDataset,
    feature_matrix: np.ndarray | None = None,
    seed: int = 0,
    max_packets: int | None = None,
    time_dilation: float = 1.0,
) -> PacketTrace:
    """Expand connection records into an interleaved packet trace.

    The aggregate load is 5 Gbps (the testbed sends "traffic at a fixed
    5 Gbps"); flow sizes are geometric with a mean of 24 packets (the
    heavy-tailed shape observed in datacenter traces); a flow's median
    lifetime is 15 % of the trace, lognormal-spread per flow — short-lived
    flows are what make slow control planes miss packets: a rule installed
    after the flow ends detects nothing.

    Parameters
    ----------
    dataset:
        Connection-level records (one flow per record).
    feature_matrix:
        Model-ready features aligned with ``dataset``; defaults to the
        DNN 6-feature matrix.
    max_packets:
        Optional hard cap on emitted packets (truncates the tail).
    time_dilation:
        Stretch factor for timestamps (see :class:`PacketTrace`).
    """
    if time_dilation < 1.0:
        raise ValueError("time_dilation must be >= 1")
    from .nslkdd import dnn_feature_matrix  # local import avoids cycle at import time

    rng = np.random.default_rng(seed)
    feats = feature_matrix if feature_matrix is not None else dnn_feature_matrix(dataset)
    if len(feats) != len(dataset):
        raise ValueError("feature matrix is not aligned with the dataset")

    n_flows = len(dataset)
    # Geometric flow sizes: many mice, few elephants.
    sizes = rng.geometric(p=1.0 / 24.0, size=n_flows)
    src_bytes = dataset.column("src_bytes")
    protocols = dataset.column("protocol").astype(int)

    total_packets = int(sizes.sum())
    if max_packets is not None:
        total_packets = min(total_packets, max_packets)
    # Per-flow mean packet size: a datacenter-like bimodal mix — bulky MTU
    # segments for data-heavy flows, minimum-size packets for chatty/attack
    # flows (scaled by the connection's per-packet byte budget).
    bytes_per_pkt = src_bytes / np.maximum(sizes, 1)
    mean_sizes = np.clip(
        np.where(
            bytes_per_pkt > 300.0,
            rng.lognormal(np.log(1100.0), 0.25, size=n_flows),
            rng.lognormal(np.log(350.0), 0.5, size=n_flows),
        ),
        64,
        1500,
    )
    aggregate_pps = 5.0 * 1e9 / 8.0 / float(np.mean(mean_sizes))
    duration = total_packets / aggregate_pps

    # Flows start uniformly over the trace (mixing); packets within a flow
    # arrive with exponential gaps scaled so the flow spans a plausible time.
    flows: list[FlowSpec] = []
    start_times = np.sort(rng.uniform(0.0, duration, size=n_flows))
    for i in range(n_flows):
        flows.append(
            FlowSpec(
                flow_id=i,
                five_tuple=_five_tuple(rng, protocols[i]),
                n_packets=int(sizes[i]),
                mean_size=float(mean_sizes[i]),
                features=feats[i],
                label=int(dataset.labels[i]),
                attack_type=int(dataset.attack_types[i]),
                start_time=float(start_times[i]),
            )
        )

    # Merge per-flow packet streams by arrival time with a heap.  Each
    # flow's packets spread over its own (lognormal) lifetime.
    heap: list[tuple[float, int, int]] = []  # (time, flow_id, seq)
    spans = duration * 0.15 * rng.lognormal(0.0, 0.8, size=n_flows)
    gaps = {}
    for flow in flows:
        gaps[flow.flow_id] = spans[flow.flow_id] / max(flow.n_packets, 1)
        heapq.heappush(heap, (flow.start_time, flow.flow_id, 0))

    packets: list[PacketRecord] = []
    while heap and len(packets) < total_packets:
        time, fid, seq = heapq.heappop(heap)
        flow = flows[fid]
        size = int(np.clip(rng.normal(flow.mean_size, flow.mean_size * 0.2), 64, 1500))
        packets.append(
            PacketRecord(
                time=time,
                flow_id=fid,
                five_tuple=flow.five_tuple,
                size_bytes=size,
                features=flow.features,
                label=flow.label,
                attack_type=flow.attack_type,
                seq_in_flow=seq,
            )
        )
        if seq + 1 < flow.n_packets:
            gap = rng.exponential(gaps[fid])
            heapq.heappush(heap, (time + gap, fid, seq + 1))

    packets.sort(key=lambda p: p.time)
    if time_dilation != 1.0:
        packets = [
            PacketRecord(
                time=p.time * time_dilation,
                flow_id=p.flow_id,
                five_tuple=p.five_tuple,
                size_bytes=p.size_bytes,
                features=p.features,
                label=p.label,
                attack_type=p.attack_type,
                seq_in_flow=p.seq_in_flow,
            )
            for p in packets
        ]
        for flow in flows:
            flow.start_time *= time_dilation
    actual_duration = packets[-1].time if packets else 0.0
    return PacketTrace(
        packets=packets,
        flows=flows,
        duration=actual_duration,
        time_dilation=time_dilation,
    )
