"""Miss status holding registers (MSHRs).

MSHRs bound the number of simultaneously outstanding cache misses and
merge requests to a line that is already in flight — both effects the
paper's timing simulator models (32 simultaneously outstanding misses,
with p-thread and main-thread requests to the same line merging).

Time is explicit: callers pass the current cycle and receive ready
times; there is no internal clock.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.memory.counters import counter

#: "No entry outstanding" for the earliest-ready bound.
_IDLE = 1 << 62


class MshrFile:
    """A finite set of outstanding line misses.

    Args:
        capacity: maximum simultaneously outstanding misses.

    :meth:`lookup` and :meth:`allocate` are closures over the entry
    dict, bound once at construction.  They share a lower bound on the
    earliest outstanding ready time, so the expiry scan runs only once
    ``now`` reaches it — before then no entry can have expired.
    """

    lookup: Callable[[int, int], Optional[int]]
    allocate: Callable[[int, int, int], int]

    allocations = counter(0, "Entries allocated.")
    merges = counter(1, "Lookups that found the line in flight.")
    full_stalls = counter(2, "Allocations delayed by a full file.")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self._outstanding: Dict[int, int] = {}  # line addr -> ready time
        self._counts = [0, 0, 0]  # allocations, merges, full stalls
        # Occupancy (entries in flight, including the new one) sampled
        # at each allocation: occupancy -> count.  Allocations happen
        # only on L2 misses, so this costs one dict update per miss and
        # backs the memory.l2.mshr_occupancy histogram.
        self.occupancy_samples: Dict[int, int] = {}
        self._bind()

    def _bind(self) -> None:
        counts = self._counts
        capacity = self.capacity
        outstanding = self._outstanding
        samples = self.occupancy_samples
        # Never above the earliest outstanding ready time: inserts lower
        # it, and only a scan (which sees every entry) raises it.
        earliest = _IDLE

        def expire(now: int) -> None:
            nonlocal earliest
            if now >= earliest:
                for line in [ln for ln, t in outstanding.items() if t <= now]:
                    del outstanding[line]
                earliest = min(outstanding.values(), default=_IDLE)

        def lookup(line: int, now: int) -> Optional[int]:
            """If ``line`` is already in flight at ``now``, return its
            ready time (a merge); otherwise ``None``."""
            if now >= earliest:
                expire(now)
            ready = outstanding.get(line)
            if ready is not None:
                counts[1] += 1
            return ready

        def allocate(line: int, now: int, ready: int) -> int:
            """Allocate an entry for ``line`` completing at ``ready``.

            If all MSHRs are busy the request is delayed until the
            earliest outstanding miss completes; the (possibly
            pushed-back) ready time is returned.
            """
            nonlocal earliest
            if now >= earliest:
                expire(now)
            if len(outstanding) >= capacity:
                soonest = min(outstanding.values())
                if soonest > now:
                    ready += soonest - now
                counts[2] += 1
                expire(soonest)
                # Guard against pathological configs: if still full,
                # drop the oldest entry (it is complete from the
                # requester's view).
                while len(outstanding) >= capacity:
                    oldest = min(outstanding, key=outstanding.__getitem__)
                    del outstanding[oldest]
            counts[0] += 1
            occupancy = len(outstanding) + 1
            samples[occupancy] = samples.get(occupancy, 0) + 1
            outstanding[line] = ready
            if ready < earliest:
                earliest = ready
            return ready

        self._expire = expire
        self.lookup = lookup
        self.allocate = allocate

    def outstanding(self, now: int) -> int:
        """Number of misses in flight at ``now``."""
        self._expire(now)
        return len(self._outstanding)

    def reset(self) -> None:
        # Cleared in place: the bound closures hold these containers.
        self._outstanding.clear()
        self._counts[:] = [0, 0, 0]
        self.occupancy_samples.clear()
