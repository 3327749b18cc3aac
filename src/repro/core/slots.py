"""Job-slot bookkeeping.

GNU Parallel numbers its concurrent execution slots 1..N and exposes the
slot number to jobs as ``{%}``.  Freed slot numbers are reused
lowest-first, so with ``-j8`` the slot number is always in 1..8 — the
property the paper's GPU-isolation idiom depends on
(``HIP_VISIBLE_DEVICES=$(({%} - 1))`` must always land on a valid GPU
index).
"""

from __future__ import annotations

import heapq
import threading

from repro.errors import OptionsError

__all__ = ["SlotPool"]


class SlotPool:
    """Thread-safe pool of slot numbers 1..capacity, granted lowest-first.

    One lock guards the heap and the held set.  A grant never waits: the
    scheduler asks for a slot only when it has a job to start, and a
    full pool means a running job's completion will ask again.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise OptionsError(f"slot pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._free = list(range(1, capacity + 1))
        heapq.heapify(self._free)
        #: Slots currently granted — O(1) double-release detection (the
        #: former ``slot in self._free`` list scan was O(capacity) per
        #: release, a per-job cost).
        self._held: set[int] = set()
        self._lock = threading.Lock()

    def acquire(self) -> int | None:
        """Take the lowest free slot number; None when every slot is held."""
        with self._lock:
            if not self._free:
                return None
            slot = heapq.heappop(self._free)
            self._held.add(slot)
            return slot

    def release(self, slot: int) -> None:
        """Return ``slot`` to the pool."""
        if not 1 <= slot <= self.capacity:
            raise OptionsError(f"slot {slot} out of range 1..{self.capacity}")
        with self._lock:
            if slot not in self._held:
                raise OptionsError(f"slot {slot} released twice")
            self._held.remove(slot)
            heapq.heappush(self._free, slot)

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        with self._lock:
            return len(self._held)
