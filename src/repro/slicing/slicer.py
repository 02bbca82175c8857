"""Dynamic backward slicing of cache-miss computations.

Given a dynamic trace and the index of a problem-load instance, the
slicer computes the **backward data-dependence slice** of the load: the
chain of dynamic instructions that produced the load's address (and,
through memory, the values feeding that address), restricted to a
bounded *slicing scope* — the window of dynamic instructions examined
before the miss (the paper's default is 1024).

Register dependences are followed through ``dep1``/``dep2`` edges, and
memory dependences through ``memdep`` edges (a load sliced into the
body pulls in the store that produced its value, which is what later
enables store-load pair elimination).  Branches never appear: p-threads
are control-less and slices carry data dependences only.

The slice is returned as dynamic indices in **descending** order.  The
paper flattens the dependence DAG into this linear order to form the
candidate chain: the p-thread triggered at slice position *k* has a
body consisting of every slice instruction younger than position *k* —
any producer older than the trigger has already executed in the main
thread by launch time and becomes a seed live-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.engine.trace import Trace


@dataclass(frozen=True)
class DynamicSlice:
    """A backward slice of one dynamic problem-load instance.

    Attributes:
        root: dynamic index of the problem load.
        indices: slice member dynamic indices, descending (root first).
        dep_positions: for each slice position, the positions (into
            ``indices``) of its producers that are inside the slice.
            Producers outside the scope window are live-ins and do not
            appear.
    """

    root: int
    indices: Tuple[int, ...]
    dep_positions: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.indices)


class Slicer:
    """Backward slicer over one trace.

    Args:
        trace: the dynamic trace to slice.
        scope: slicing scope in dynamic instructions — only producers
            within ``scope`` instructions before the root are followed.
        max_length: stop growing the slice beyond this many
            instructions (the tree only needs candidates up to the
            maximum p-thread length, plus slack for optimization).
        start / end: the roots this slicer accepts, ``[start, end)``
            (default: the whole trace).  Only the part of the trace
            those roots' slices can reach is read.
    """

    def __init__(
        self,
        trace: Trace,
        scope: int = 1024,
        max_length: int = 64,
        start: int = 0,
        end: Optional[int] = None,
    ) -> None:
        if scope < 1:
            raise ValueError("slicing scope must be >= 1")
        if max_length < 1:
            raise ValueError("max slice length must be >= 1")
        self.trace = trace
        self.scope = scope
        self.max_length = max_length
        self._start = max(start, 0)
        self._stop = len(trace) if end is None else min(end, len(trace))
        # Plain-int views of the dependence edges, reading numpy scalars
        # one at a time dominates slicing otherwise.  They cover only
        # the window the accepted roots can reach, rebased so that trace
        # index ``offset`` is 0: a region's slicer reads its region, not
        # the whole trace.
        offset = max(min(start, self._stop) - scope, 0)
        self._offset = offset
        self._dep1: List[int] = (trace.dep1[offset:self._stop] - offset).tolist()
        self._dep2: List[int] = (trace.dep2[offset:self._stop] - offset).tolist()
        self._memdep: List[int] = (
            trace.memdep[offset:self._stop] - offset
        ).tolist()

    def slice_at(self, root: int) -> DynamicSlice:
        """Compute the backward slice of the dynamic load at ``root``."""
        if not self._start <= root < self._stop:
            raise IndexError(f"root index out of range: {root}")
        dep1 = self._dep1
        dep2 = self._dep2
        memdep = self._memdep
        offset = self._offset
        # Work in window indices.  Producers must lie inside the scope
        # window; "none" (-1) maps to -1 - offset, below it too.
        lowest = max(root - self.scope, -1) - offset
        max_length = self.max_length

        members: List[int] = []
        # Every index ever pushed (members and frontier alike).
        seen = {root - offset}
        # Grow the slice in descending dynamic order: the frontier is a
        # max-heap of candidate producer indices (stored negated).
        frontier: List[int] = [offset - root]
        while frontier and len(members) <= max_length:
            idx = -heappop(frontier)
            members.append(idx)
            producer = dep1[idx]
            if producer > lowest and producer not in seen:
                seen.add(producer)
                heappush(frontier, -producer)
            producer = dep2[idx]
            if producer > lowest and producer not in seen:
                seen.add(producer)
                heappush(frontier, -producer)
            # memdep is -1 for anything but a store-forwarded load.
            producer = memdep[idx]
            if producer > lowest and producer not in seen:
                seen.add(producer)
                heappush(frontier, -producer)

        position = {idx: pos for pos, idx in enumerate(members)}
        deps: List[Tuple[int, ...]] = []
        for idx in members:
            producer_positions = [
                position[producer]
                for producer in (dep1[idx], dep2[idx], memdep[idx])
                if producer in position and producer != idx
            ]
            if len(producer_positions) > 1:
                producer_positions = sorted(set(producer_positions))
            deps.append(tuple(producer_positions))
        result = DynamicSlice(
            root=root,
            indices=tuple([idx + offset for idx in members]),
            dep_positions=tuple(deps),
        )
        # Debug-mode post-pass (lazy import: repro.analysis imports us).
        from repro.analysis.report import assert_clean, verification_enabled

        if verification_enabled():
            from repro.analysis.verifier import verify_slice

            assert_clean(verify_slice(result), f"slice_at(root={root})")
        return result
