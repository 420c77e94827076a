"""Stateful registers: cross-packet, cross-flow feature accumulation.

Section 3.1: "We use stateful elements (i.e., registers) of the
switch-processing pipeline to aggregate features across packets and across
flows" — e.g. counting urgent flags or tracking connection duration.  A
register array is indexed by a hash of the flow key (as real switches do),
so collisions are possible and modeled.

The key is fixed per packet, so the batched path hashes it once per trace
(``TraceColumns.flow_hashes``, a call to :func:`fnv1a_columns`) and
:meth:`FlowFeatureAccumulator.update_batch` takes that hash column; the
scalar :func:`_fnv1a` behind :meth:`RegisterArray.index_of` is the oracle
both are pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RegisterArray", "FlowFeatureAccumulator", "fnv1a_columns"]


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: ``_FNV_PRIME ** k mod 2**64`` for k = 0..8: one multiply that stands in
#: for ``k`` rounds over zero bytes (xor with 0 is the identity).
_PRIME_POWERS = [np.uint64(pow(_FNV_PRIME, k, 1 << 64)) for k in range(9)]
#: The per-packet aggregates :meth:`FlowFeatureAccumulator.update` returns.
_AGGREGATES = ("flow_pkts", "flow_bytes", "flow_urgent", "flow_duration_ms")


def _fnv1a(key: tuple) -> int:
    """FNV-1a over the flow key's integer components (deterministic).

    Each component is hashed as its 64-bit two's-complement little-endian
    bytes, so a negative value hashes like its ``int64`` column entry.
    """
    acc = _FNV_OFFSET
    for part in key:
        for byte in (int(part) & _MASK64).to_bytes(8, "little"):
            acc ^= byte
            acc = (acc * _FNV_PRIME) & _MASK64
    return acc


def fnv1a_columns(columns) -> np.ndarray:
    """Vectorized :func:`_fnv1a` over N keys given as per-component columns.

    ``columns`` is a sequence of arrays (one per key component, aligned by
    row); returns a uint64 hash per row, bit-identical to hashing each
    row's tuple with the scalar function.  uint64 arithmetic wraps mod
    2**64, matching the scalar mask.

    The columns are read byte by byte through a little-endian ``uint8``
    view of one ``(k, N)`` block of their 64-bit two's-complement values.
    Bytes above a column's widest value (one ``max`` finds them all) are
    zero in every row, so their rounds reduce to multiplies and fold into
    one multiply by a power of the prime: a 16-bit port column costs two
    xors and two multiplies, not eight of each.
    """
    n = len(columns[0]) if len(columns) else 0
    acc = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if n == 0:
        return acc
    words = np.array(columns, dtype="<u8", order="C")
    octets = words.view(np.uint8).reshape(len(words), n, 8)
    for column, top in zip(octets, words.max(axis=1).tolist()):
        width = (top.bit_length() + 7) // 8  # 0..8 live bytes
        for j in range(width - 1):
            acc ^= column[:, j]
            acc *= _PRIME_POWERS[1]
        if width:
            acc ^= column[:, width - 1]
        # The last live byte's multiply and one per zero byte above it.
        acc *= _PRIME_POWERS[min(8, 9 - width)]
    return acc


@dataclass
class RegisterArray:
    """A fixed-size array of saturating counters/accumulators."""

    size: int
    width_bits: int = 32
    values: np.ndarray = field(init=False, repr=False)
    #: Set by an owning :class:`FlowFeatureAccumulator`: its ``size``-long
    #: boolean mask, in which every written slot is marked.
    _dirty: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")
        # Written here, not calloc'd (``np.zeros``): the pages are resident
        # before the first packet, so no update pays to fault them in.
        self.values = np.full(self.size, 0, dtype=np.int64)

    @property
    def max_value(self) -> int:
        return (1 << self.width_bits) - 1

    def index_of(self, key: tuple) -> int:
        return _fnv1a(key) % self.size

    def add_at(self, idx: int, amount: int = 1) -> int:
        """Saturating add at slot ``idx`` (a key's :meth:`index_of`);
        returns the new value."""
        self.values[idx] = min(self.values[idx] + amount, self.max_value)
        if self._dirty is not None:
            self._dirty[idx] = True
        return int(self.values[idx])

    def write_at(self, idx: int, value: int) -> None:
        """Saturating write at slot ``idx`` (a key's :meth:`index_of`)."""
        self.values[idx] = min(int(value), self.max_value)
        if self._dirty is not None:
            self._dirty[idx] = True

    def clear(self) -> None:
        self.values[:] = 0
        if self._dirty is not None:
            self._dirty[:] = True


@dataclass
class FlowFeatureAccumulator:
    """Per-flow running features maintained by preprocessing MATs.

    Tracks the aggregates the anomaly pipeline needs: packet count, byte
    count, urgent-flag count, and first-seen time (for duration).

    ``dirty`` marks every slot written since :meth:`take_dirty` last
    cleared it — one ``slots``-long mask for the four arrays, so its size
    never depends on how many packets went by unasked.
    """

    slots: int = 65536
    packet_count: RegisterArray = field(init=False)
    byte_count: RegisterArray = field(init=False)
    urgent_count: RegisterArray = field(init=False)
    first_seen_ms: RegisterArray = field(init=False)
    dirty: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.packet_count = RegisterArray(self.slots)
        self.byte_count = RegisterArray(self.slots, width_bits=48)
        self.urgent_count = RegisterArray(self.slots)
        self.first_seen_ms = RegisterArray(self.slots, width_bits=48)
        self.dirty = np.full(self.slots, False)  # written, like the arrays
        for array in (self.packet_count, self.byte_count,
                      self.urgent_count, self.first_seen_ms):
            array._dirty = self.dirty

    def take_dirty(self) -> np.ndarray:
        """Ascending indices of the slots written since the last call
        (a superset of the slots whose values moved); clears the mask."""
        touched = self.dirty.nonzero()[0]
        self.dirty[touched] = False
        return touched

    def update(self, five_tuple: tuple, size_bytes: int, urgent: bool, now_s: float) -> dict:
        """Apply one packet; returns the flow's current aggregates."""
        now_ms = int(now_s * 1e3)
        # All four arrays share the slot count, hence the slot: hash once.
        slot = self.packet_count.index_of(five_tuple)
        if self.packet_count.values[slot] == 0:
            self.first_seen_ms.write_at(slot, now_ms)
        pkts = self.packet_count.add_at(slot)
        size = self.byte_count.add_at(slot, size_bytes)
        urg = self.urgent_count.add_at(slot, 1 if urgent else 0)
        duration_ms = now_ms - int(self.first_seen_ms.values[slot])
        return {
            "flow_pkts": pkts,
            "flow_bytes": size,
            "flow_urgent": urg,
            "flow_duration_ms": duration_ms,
        }

    def update_batch(
        self,
        hashes: np.ndarray,
        sizes: np.ndarray,
        urgent: np.ndarray,
        times: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Apply ``N`` packets in order; returns per-packet aggregates.

        Bit-identical to ``N`` sequential :meth:`update` calls — including
        hash collisions (keys landing on one slot share its registers) and
        per-step saturation, which for these non-negative increments
        reduces to clipping a within-slot running sum.  Packets are grouped
        by register slot with a stable sort, so arrival order is respected
        inside every slot.

        Parameters
        ----------
        hashes:
            Per-packet uint64 flow-key hashes (``TraceColumns.flow_hashes``,
            computed once per trace by the caller); a packet's slot is
            ``hash % slots``, the :meth:`RegisterArray.index_of` slot of
            its five-tuple.
        sizes:
            Per-packet byte counts (non-negative).
        urgent:
            Per-packet urgent-flag booleans.
        times:
            Per-packet arrival times in seconds.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        n = len(sizes)
        if n == 0:
            return dict(zip(_AGGREGATES, np.zeros((4, 0), dtype=np.int64)))
        now_ms = (np.asarray(times, dtype=np.float64) * 1e3).astype(np.int64)
        # All four arrays share the slot count, hence the slot index (a
        # power-of-two count masks the hash's low bits: no division).  A
        # key that fits 16 bits sorts as uint16, where numpy's stable sort
        # is a radix sort (same order, a fraction of the time).
        size, low = self.packet_count.size, np.uint64(self.packet_count.size - 1)
        hashes = np.asarray(hashes, dtype=np.uint64)
        idx = hashes % np.uint64(size) if size & low else hashes & low
        idx = idx.astype(np.uint16 if size <= 1 << 16 else np.int64)

        # Group packets by slot, preserving arrival order within a slot.
        order = idx.argsort(kind="stable")
        sidx = idx[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(sidx[1:], sidx[:-1], out=starts[1:])
        seg_first = starts.nonzero()[0]                # first position per slot
        seg_id = starts.cumsum()
        seg_id -= 1                                    # slot ordinal, per position
        slots = sidx[seg_first]
        fresh = self.packet_count.values[slots] == 0   # pre-batch count, per slot

        def running(amounts: np.ndarray, reg: RegisterArray) -> np.ndarray:
            """The pre-batch register value plus the running sum within
            the slot, saturated."""
            csum = amounts.cumsum()
            csum += (reg.values[slots] + amounts[seg_first] - csum[seg_first])[seg_id]
            return np.minimum(csum, reg.max_value, out=csum)

        pkts = running(np.ones(n, dtype=np.int64), self.packet_count)
        bytes_run = running(sizes[order], self.byte_count)
        urgent_run = running(np.asarray(urgent, dtype=bool)[order], self.urgent_count)

        # First-seen: set by the first packet of a slot whose pre-batch
        # packet count is zero (saturating write, as the scalar path does).
        now_sorted = now_ms[order]
        fs_per_slot = np.where(
            fresh,
            np.minimum(now_sorted[seg_first], self.first_seen_ms.max_value),
            self.first_seen_ms.values[slots],
        )

        # Write the per-slot final state back into the register arrays.
        seg_last = np.empty(len(seg_first), dtype=np.intp)
        seg_last[:-1] = seg_first[1:] - 1
        seg_last[-1] = n - 1
        self.packet_count.values[slots] = pkts[seg_last]
        self.byte_count.values[slots] = bytes_run[seg_last]
        self.urgent_count.values[slots] = urgent_run[seg_last]
        self.first_seen_ms.values[slots] = fs_per_slot
        self.dirty[slots] = True

        arrival = np.empty(n, dtype=np.intp)           # the inverse permutation
        arrival[order] = np.arange(n)
        runs = (pkts, bytes_run, urgent_run, now_sorted - fs_per_slot[seg_id])
        return {name: run[arrival] for name, run in zip(_AGGREGATES, runs)}
