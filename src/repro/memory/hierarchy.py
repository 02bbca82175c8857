"""Two-level cache hierarchy: functional and timed views.

Two classes share the same geometry:

* :class:`FunctionalHierarchy` classifies each access by the level it
  hits in, with no notion of time.  The trace generator uses it to tag
  every dynamic load with its miss level, which is what the slicer and
  the analytical model consume.

* :class:`TimedHierarchy` adds latency, MSHRs, bus occupancy, and the
  cache-block timestamping the paper uses to classify covered misses
  ("Miss coverage is measured by timestamping cache blocks with p-thread
  request, main thread request, and ready times").  The timing simulator
  calls it with explicit cycle numbers.

Per the paper's methodology, p-thread loads prefetch **only into the
L2** — the L1 fill path is disabled for them so that framework
validation is not perturbed by L1 effects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.memory.bus import Bus
from repro.memory.cache import Cache, CacheConfig
from repro.memory.counters import counter
from repro.memory.mshr import MshrFile


class MemoryLevel(enum.IntEnum):
    """Where an access was satisfied."""

    L1 = 1
    L2 = 2
    MEM = 3


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and timing of the full memory system.

    Defaults follow the paper's configuration, scaled where noted:
    16KB/32B/2-way 2-cycle L1, 256KB/64B/4-way 6-cycle L2, 70-cycle
    memory, 32 outstanding misses, 32B busses with the memory bus at a
    quarter of the processor clock.  Workload suites shrink the caches
    (keeping ratios) so that scaled-down working sets exercise the same
    miss regimes as SPEC2000 did against the paper's caches.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=16 * 1024, line_bytes=32, assoc=2, hit_latency=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=256 * 1024, line_bytes=64, assoc=4, hit_latency=6
        )
    )
    mem_latency: int = 70
    mshr_entries: int = 32
    backside_bus_bytes: int = 32
    backside_bus_divisor: int = 1
    memory_bus_bytes: int = 32
    memory_bus_divisor: int = 4

    def scaled(self, factor: int) -> "HierarchyConfig":
        """Return a copy with both cache capacities divided by ``factor``.

        Line sizes and associativities are preserved, so indexing
        behaviour is unchanged — only capacity shrinks.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return HierarchyConfig(
            l1=CacheConfig(
                name=self.l1.name,
                size_bytes=self.l1.size_bytes // factor,
                line_bytes=self.l1.line_bytes,
                assoc=self.l1.assoc,
                hit_latency=self.l1.hit_latency,
            ),
            l2=CacheConfig(
                name=self.l2.name,
                size_bytes=self.l2.size_bytes // factor,
                line_bytes=self.l2.line_bytes,
                assoc=self.l2.assoc,
                hit_latency=self.l2.hit_latency,
            ),
            mem_latency=self.mem_latency,
            mshr_entries=self.mshr_entries,
            backside_bus_bytes=self.backside_bus_bytes,
            backside_bus_divisor=self.backside_bus_divisor,
            memory_bus_bytes=self.memory_bus_bytes,
            memory_bus_divisor=self.memory_bus_divisor,
        )

    def with_mem_latency(self, latency: int) -> "HierarchyConfig":
        """Copy with a different main-memory latency (Figure 8 sweeps)."""
        return HierarchyConfig(
            l1=self.l1,
            l2=self.l2,
            mem_latency=latency,
            mshr_entries=self.mshr_entries,
            backside_bus_bytes=self.backside_bus_bytes,
            backside_bus_divisor=self.backside_bus_divisor,
            memory_bus_bytes=self.memory_bus_bytes,
            memory_bus_divisor=self.memory_bus_divisor,
        )


class FunctionalHierarchy:
    """Untimed two-level hierarchy used by the trace generator."""

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)

    def access(self, addr: int, is_write: bool = False) -> MemoryLevel:
        """Access ``addr``; returns the level that satisfied it."""
        return MemoryLevel(self.access_fast(addr, is_write))

    def access_fast(self, addr: int, is_write: bool = False) -> int:
        """:meth:`access` returning a plain int level (1/2/3).

        The simulators call this once per dynamic load/store; returning
        the raw :class:`MemoryLevel` value skips an enum construction
        per access (the enum API stays for everything that wants it).
        """
        if self.l1.access(addr, is_write):
            return 1
        if self.l2.access(addr, is_write):
            return 2
        return 3

    def warm(self, addr: int) -> None:
        """Install ``addr`` in both levels without counting statistics."""
        self.l1.fill(addr)
        self.l2.fill(addr)


class CoverageKind(enum.Enum):
    """Classification of a main-thread touch of a p-thread-fetched line."""

    FULL = "full"  # line ready before the main thread asked
    PARTIAL = "partial"  # fill in flight when the main thread asked
    EVICTED = "evicted"  # prefetched line evicted before use


@dataclass
class AccessOutcome:
    """Result of a timed access.

    Attributes:
        level: level that (logically) satisfied the access, *before*
            any p-thread prefetch is credited — i.e. ``MEM`` means this
            would have been an L2 miss in the unassisted program.
        complete: cycle at which the data is available.
        coverage: set when the access touches a p-thread-prefetched
            line for the first time.
    """

    level: MemoryLevel
    complete: int
    coverage: Optional[CoverageKind] = None


class TimedHierarchy:
    """Two-level hierarchy with latency, MSHRs, busses and coverage.

    All methods take the current cycle explicitly; the class holds no
    clock of its own.

    The simulators build one hierarchy per run and call
    :attr:`mt_access_fast`, :attr:`pt_access_fast` and
    :attr:`phantom_access_fast` once or twice per simulated
    instruction.  Those three are closures composed here, once, from
    the caches', busses' and MSHR file's own bound access paths, with
    every latency and line size resolved at construction.
    """

    mt_access_fast: Callable[..., Tuple[int, int]]
    pt_access_fast: Callable[[int, int], Tuple[int, int]]
    phantom_access_fast: Callable[[int, int], Tuple[int, int]]

    mt_accesses = counter(0, "Main-thread accesses.")
    mt_l2_misses = counter(1, "Main-thread L2 misses left after coverage.")
    pt_accesses = counter(2, "P-thread loads.")
    pt_l2_misses = counter(3, "P-thread loads that missed in the L2.")
    full_covered = counter(4, "Misses covered by a line already filled.")
    partial_covered = counter(5, "Misses covered by a fill in flight.")
    partial_covered_cycles = counter(
        6, "Cycles partial coverage saved (request to main-thread use)."
    )
    evicted_prefetches = counter(7, "Prefetched lines evicted before use.")

    def __init__(self, config: HierarchyConfig, perfect_l2: bool = False) -> None:
        self.config = config
        #: Perfect-L2 mode: fetches from memory complete in an L2 hit
        #: time (misses are still *counted*) — the Table 1 limit study.
        self.perfect_l2 = perfect_l2
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self.mshrs = MshrFile(config.mshr_entries)
        self.backside_bus = Bus(
            "backside", config.backside_bus_bytes, config.backside_bus_divisor
        )
        self.memory_bus = Bus(
            "memory", config.memory_bus_bytes, config.memory_bus_divisor
        )
        # L2 lines fetched by p-threads and not yet touched by the main
        # thread, keyed by L2 line address: (request time, ready time).
        self._pt_lines: Dict[int, Tuple[int, int]] = {}
        # Fill completion time of lines still in transit from memory.
        # Tag state is updated at request time (so residency checks
        # work), but an access to an in-flight line cannot complete
        # before the fill does — without this, back-to-back accesses to
        # one missing line would break miss serialization entirely.
        self._line_ready: Dict[int, int] = {}
        # Indexed as the counter attributes above declare.
        self._counts = [0] * 8
        self._bind()

    def _bind(self) -> None:
        """Compose the three access paths (see the class docstring)."""
        counts = self._counts
        config = self.config
        l1_access = self.l1.access
        l1_probe = self.l1.probe
        l2_access = self.l2.access
        l2_probe = self.l2.probe
        shift = self.l2.config.line_bytes.bit_length() - 1
        l1_hit = config.l1.hit_latency
        l2_hit = config.l2.hit_latency
        mem_latency = config.mem_latency
        perfect_l2 = self.perfect_l2
        # Backside transfers move an L1 line; memory transfers an L2 line.
        backside = self.backside_bus.transfer(config.l1.line_bytes)
        memory_bus = self.memory_bus.transfer(config.l2.line_bytes)
        mshr_lookup = self.mshrs.lookup
        mshr_allocate = self.mshrs.allocate
        pt_lines = self._pt_lines
        pt_pop = pt_lines.pop
        line_ready = self._line_ready
        ready_get = line_ready.get

        def fetch(line2: int, now: int) -> int:
            """Fetch ``line2`` from memory into the L2; returns ready
            time.  Every caller's L2 access has just missed, and that
            miss already allocated the line in the L2's tag state."""
            if perfect_l2:
                return now + l2_hit
            merged = mshr_lookup(line2, now)
            if merged is not None:
                return merged
            ready = mshr_allocate(line2, now, memory_bus(now + mem_latency))
            line_ready[line2] = ready
            if len(line_ready) > 8192:
                # Pruned in place: the access paths close over the dict.
                for line in [ln for ln, t in line_ready.items() if t <= now]:
                    del line_ready[line]
            return ready

        def mt_access_fast(
            addr: int, now: int, is_write: bool = False
        ) -> Tuple[int, int]:
            """Timed main-thread access at cycle ``now``.

            Returns ``(level, complete)`` as plain ints (level 1/2/3 is
            the :class:`MemoryLevel` value).  Coverage classification
            updates the coverage counters.
            """
            counts[0] += 1  # mt_accesses
            line2 = addr >> shift << shift
            stamp = pt_pop(line2, None) if pt_lines else None

            if l1_access(addr, is_write):
                complete = now + l1_hit
                pending = ready_get(line2)
                if pending is not None and pending > complete:
                    complete = pending
                return 1, complete

            if l2_access(addr, is_write):
                # L2 hit.  If a p-thread fetched this line, the
                # unassisted program would have missed: classify the
                # coverage.
                complete = backside(now + l2_hit)
                pending = ready_get(line2)
                if pending is not None and pending > complete:
                    complete = pending
                if stamp is not None:
                    request_time, stamp_ready = stamp
                    if stamp_ready <= now:
                        counts[4] += 1  # full_covered
                    else:
                        counts[5] += 1  # partial_covered
                        if now > request_time:
                            counts[6] += now - request_time
                        if stamp_ready > complete:
                            complete = stamp_ready
                return 2, complete

            # L2 miss.
            counts[1] += 1  # mt_l2_misses
            if stamp is not None:
                # A p-thread prefetched the line but it was evicted
                # before the main thread got to it: an early (wasted)
                # prefetch.
                counts[7] += 1  # evicted_prefetches
            return 3, fetch(line2, now)

        def pt_access_fast(addr: int, now: int) -> Tuple[int, int]:
            """Timed p-thread load at cycle ``now``: reads the L1 if the
            line happens to be resident (without refreshing LRU state)
            but fills only the L2."""
            counts[2] += 1  # pt_accesses
            line2 = addr >> shift << shift
            if l1_probe(addr):
                level = 1
                complete = now + l1_hit
            elif l2_access(addr, False):
                level = 2
                complete = backside(now + l2_hit)
            else:
                counts[3] += 1  # pt_l2_misses
                complete = fetch(line2, now)
                # Stamp the line so the main thread's first touch
                # classifies it.
                pt_lines[line2] = (now, complete)
                return 3, complete
            pending = ready_get(line2)
            if pending is not None and pending > complete:
                complete = pending
            return level, complete

        def phantom_access_fast(addr: int, now: int) -> Tuple[int, int]:
            """Latency of a load that must not disturb any state.

            Used by the overhead-only validation runs, where p-threads
            execute "but do not access the data cache (thus do not have
            the pre-execution effect)": timing reflects residency, but
            no fill, LRU update, MSHR, bus, or timestamp activity
            occurs.  Like the real access paths, a hit on a line whose
            fill is still in flight cannot complete before the fill
            does; reading that timestamp disturbs nothing.
            """
            if l1_probe(addr):
                level = 1
                complete = now + l1_hit
            elif l2_probe(addr):
                level = 2
                complete = now + l2_hit
            else:
                return 3, now + mem_latency
            pending = ready_get(addr >> shift << shift)
            if pending is not None and pending > complete:
                complete = pending
            return level, complete

        self.mt_access_fast = mt_access_fast
        self.pt_access_fast = pt_access_fast
        self.phantom_access_fast = phantom_access_fast

    def mt_access(self, addr: int, now: int, is_write: bool = False) -> AccessOutcome:
        """Timed main-thread access at cycle ``now``, with its coverage
        classification (read off the coverage counters it moved)."""
        full = self.full_covered
        partial = self.partial_covered
        evicted = self.evicted_prefetches
        level, complete = self.mt_access_fast(addr, now, is_write)
        coverage = None
        if self.full_covered != full:
            coverage = CoverageKind.FULL
        elif self.partial_covered != partial:
            coverage = CoverageKind.PARTIAL
        elif self.evicted_prefetches != evicted:
            coverage = CoverageKind.EVICTED
        return AccessOutcome(MemoryLevel(level), complete, coverage)

    def pt_access(self, addr: int, now: int) -> AccessOutcome:
        """Timed p-thread load at cycle ``now`` (see :attr:`pt_access_fast`)."""
        level, complete = self.pt_access_fast(addr, now)
        return AccessOutcome(MemoryLevel(level), complete)

    def phantom_access(self, addr: int, now: int) -> AccessOutcome:
        """Latency of a load that disturbs no state (see
        :attr:`phantom_access_fast`)."""
        level, complete = self.phantom_access_fast(addr, now)
        return AccessOutcome(MemoryLevel(level), complete)

    def unclaimed_prefetches(self) -> int:
        """P-thread-fetched lines never touched by the main thread."""
        return len(self._pt_lines)

    def publish_metrics(self, registry) -> None:
        """Fold this hierarchy's counters into a metrics registry.

        Called once at the end of a timing run (see
        ``TimingSimulator._publish_metrics``), never from the access
        fast path.  Names belong to the stable catalog in
        :mod:`repro.obs.export`.
        """
        registry.counter("memory.mt.accesses").inc(self.mt_accesses)
        registry.counter("memory.mt.l2_misses").inc(self.mt_l2_misses)
        registry.counter("memory.pt.accesses").inc(self.pt_accesses)
        registry.counter("memory.pt.l2_misses").inc(self.pt_l2_misses)
        registry.counter("memory.prefetch.evicted").inc(self.evicted_prefetches)
        registry.counter("memory.prefetch.unclaimed").inc(
            self.unclaimed_prefetches()
        )
        mshrs = self.mshrs
        registry.counter("memory.l2.mshr.allocations").inc(mshrs.allocations)
        registry.counter("memory.l2.mshr.merges").inc(mshrs.merges)
        registry.counter("memory.l2.mshr.full_stalls").inc(mshrs.full_stalls)
        occupancy = registry.histogram("memory.l2.mshr_occupancy")
        for depth, count in mshrs.occupancy_samples.items():
            occupancy.observe(depth, count)
