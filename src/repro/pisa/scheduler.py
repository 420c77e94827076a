"""Packet scheduling: the per-path sub-queues and their round-robin arbiter.

The modified pipeline splits the packet queue into sub-queues with "a
round-robin (RR) selector arbitrat[ing] which path to connect to the
postprocessing MATs" (Fig. 6).  Rank-ordered push-in first-out queues
(Section 3.2) are not modeled: no stage of the pipeline orders packets
by rank.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["PacketQueue", "RoundRobinArbiter"]


@dataclass
class PacketQueue:
    """A bounded FIFO sub-queue (per pipeline block, Fig. 6).

    Backed by a :class:`collections.deque`: a full-trace drain pops from
    the head once per packet, and ``list.pop(0)`` would make that O(N^2)
    over a multi-hundred-thousand-packet trace.  ``drops`` and
    ``high_watermark`` semantics are unchanged (and remain what
    :meth:`~repro.pisa.TaurusPipeline.state_snapshot` carries).
    """

    name: str
    capacity: int = 4096
    items: deque = field(default_factory=deque)
    drops: int = 0
    high_watermark: int = 0

    def push(self, item: Any) -> bool:
        if len(self.items) >= self.capacity:
            self.drops += 1
            return False
        self.items.append(item)
        self.high_watermark = max(self.high_watermark, len(self.items))
        return True

    def pop(self) -> Any:
        return self.items.popleft()  # IndexError on empty, like list.pop(0)

    def __len__(self) -> int:
        return len(self.items)


class RoundRobinArbiter:
    """Round-robin selection across the ML and bypass queues."""

    def __init__(self, queues: list[PacketQueue]):
        if not queues:
            raise ValueError("arbiter needs at least one queue")
        self.queues = queues
        self._turn = 0

    def select(self) -> Any | None:
        """Pop from the next non-empty queue in RR order (None if all empty)."""
        for offset in range(len(self.queues)):
            queue = self.queues[(self._turn + offset) % len(self.queues)]
            if len(queue):
                self._turn = (self._turn + offset + 1) % len(self.queues)
                return queue.pop()
        return None

    def drain(self) -> list[Any]:
        """Pop until all queues are empty (preserving RR interleave)."""
        out = []
        while True:
            item = self.select()
            if item is None:
                return out
            out.append(item)
