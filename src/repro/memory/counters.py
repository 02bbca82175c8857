"""Counter attributes of components whose hot path is a bound closure.

:class:`~repro.memory.cache.Cache`, :class:`~repro.memory.bus.Bus`,
:class:`~repro.memory.mshr.MshrFile` and
:class:`~repro.memory.hierarchy.TimedHierarchy` bind their access paths
as closures once, at construction, and store them on the instance.  A
closure that captured its own instance would make a reference cycle,
which keeps the component — with every bus slot and in-flight line it
recorded — alive until the cyclic collector runs, after the run that
made it is long over.  So the closures update a counter list they
share with the instance, and the instance reads its counters from it.
"""

from __future__ import annotations


def counter(index: int, doc: str) -> property:
    """Read-only attribute: slot ``index`` of the instance's
    ``_counts`` list."""
    return property(lambda self: self._counts[index], doc=doc)
