"""Bus occupancy model.

The paper's memory system has a 32-byte backside (L2) bus clocked at
processor frequency and a 32-byte memory bus clocked at one quarter
processor frequency.  Bus contention matters: the paper identifies
memory-bus contention as the main source of full-coverage
over-estimation.

The model is slot-based rather than a single ``next_free`` cursor
because requests do not arrive in timestamp order — the simulator
processes a p-thread's whole body (with future timestamps) when it
launches, then returns to earlier main-thread accesses.  Time is
divided into slots one transfer long; each slot carries at most one
transfer, and a request takes the first free slot at or after its
arrival.  This preserves the bus's true throughput limit and resolves
contention locally without ordering assumptions.
"""

from __future__ import annotations

from typing import Callable, Dict, Set

from repro.memory.counters import counter


class Bus:
    """A serializing transfer resource with slot-based arbitration.

    Args:
        name: label used in statistics.
        width_bytes: bytes transferred per bus clock.
        cycles_per_beat: processor cycles per bus clock (4 for the
            paper's memory bus, 1 for the backside bus).

    The slot sets are the record of every transfer since the last
    :meth:`reset`, so :attr:`transfers` and :attr:`busy_cycles` are
    read off them; only :attr:`wait_cycles` is counted per request.
    """

    wait_cycles = counter(0, "Cycles requests waited for a free slot.")

    def __init__(self, name: str, width_bytes: int, cycles_per_beat: int = 1) -> None:
        if width_bytes < 1 or cycles_per_beat < 1:
            raise ValueError("bus width and clock divisor must be >= 1")
        self.name = name
        self.width_bytes = width_bytes
        self.cycles_per_beat = cycles_per_beat
        # Occupied slot indices, per transfer duration (transfers on one
        # bus are near-homogeneous — line fills — so this rarely holds
        # more than one duration).
        self._slots: Dict[int, Set[int]] = {}
        # Bound request paths, per transfer size (see :meth:`transfer`).
        self._requesters: Dict[int, Callable[[int], int]] = {}
        self._counts = [0]  # wait cycles

    @property
    def transfers(self) -> int:
        return sum(len(slots) for slots in self._slots.values())

    @property
    def busy_cycles(self) -> int:
        return sum(
            duration * len(slots) for duration, slots in self._slots.items()
        )

    def transfer_cycles(self, num_bytes: int) -> int:
        """Occupancy in processor cycles for ``num_bytes``."""
        beats = -(-num_bytes // self.width_bytes)  # ceil division
        return beats * self.cycles_per_beat

    def transfer(self, num_bytes: int) -> Callable[[int], int]:
        """The request path for ``num_bytes`` transfers, bound once.

        Returns ``request(now) -> completion cycle``: the transfer
        occupies the first free slot at or after ``now``; requests may
        arrive in any timestamp order.  The duration and its slot set
        are resolved here rather than per request — the timed hierarchy
        binds one of these per bus for its fixed line size.
        """
        request = self._requesters.get(num_bytes)
        if request is not None:
            return request
        duration = self.transfer_cycles(num_bytes)
        slots = self._slots.setdefault(duration, set())
        counts = self._counts

        def request(now: int) -> int:
            index = (now if now > 0 else 0) // duration
            while index in slots:
                index += 1
            slots.add(index)
            start = index * duration
            if start > now:
                counts[0] += start - now
            else:
                start = now
            return start + duration

        self._requesters[num_bytes] = request
        return request

    def request(self, now: int, num_bytes: int) -> int:
        """Schedule a transfer of ``num_bytes`` requested at ``now``;
        returns the cycle at which it completes."""
        return self.transfer(num_bytes)(now)

    def reset(self) -> None:
        # Cleared in place: bound request paths hold the slot sets.
        for slots in self._slots.values():
            slots.clear()
        self._counts[0] = 0
