"""Per-layer time accounting by wrapping the program's public functions.

Used only in a traced run, inside the batch worker process.  Each
wrapped function gets a count-and-seconds accumulator; nested wrapped
calls are subtracted from their caller, so every accumulator also has a
self time and the self times of all layers never overlap.  The program
itself is not changed: :func:`install` rebinds every name that refers to
a wrapped function, and :func:`layer_metrics` turns the accumulators into
the benchmark's ``per_layer`` metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Union

Namer = Union[str, Callable[[tuple, dict], str]]


class LayerClock:
    """Count, inclusive seconds and self seconds per layer name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []

    def wrap(
        self,
        name: Namer,
        fn: Callable,
        on_result: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> Callable:
        """``fn`` with its calls accounted under ``name``.

        ``name`` may be a function of the call's arguments (used to split
        the timing simulator by mode).  ``on_result`` sees each result and
        adds work counts to :attr:`counts`.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                children = self._children.pop()
                key = name if isinstance(name, str) else name(args, kwargs)
                self.calls[key] += 1
                self.total[key] += elapsed
                self.self_time[key] += elapsed - children
                if self._children:
                    self._children[-1] += elapsed
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def covered(self) -> float:
        """Seconds spent inside any wrapped function (sum of self times)."""
        return sum(self.self_time.values())


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies)."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


#: SimMode names of the timing simulator, by the layer metric they feed.
_TIMING_MODES = {
    "baseline": "timing.baseline",
    "pre-exec": "timing.preexec",
    "overhead-execute": "timing.validation",
    "overhead-sequence": "timing.validation",
    "latency-only": "timing.validation",
    "perfect-l2": "timing.perfect_l2",
}


def _timing_layer(args: tuple, kwargs: dict) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode")
    name = getattr(mode, "name", "baseline")
    return _TIMING_MODES.get(name, "timing.other")


def install(clock: LayerClock) -> None:
    """Wrap the public functions of every measured layer."""
    import repro.harness.tables  # noqa: F401 - binds the names to rebind
    from repro.engine import functional
    from repro.harness.artifacts import ArtifactCache
    from repro.model import advantage
    from repro.pthreads import body, merger, optimizer
    from repro.selection import program_selector, selector
    from repro.slicing.slice_tree import SliceTree
    from repro.slicing.slicer import Slicer
    from repro.timing.core import TimingSimulator

    counts = clock.counts

    def on_tree(result, args, kwargs) -> None:
        counts["selection.trees"] += 1
        counts["selection.fixpoint_iterations"] += result.iterations
        counts["slicing.tree_nodes"] += sum(1 for _ in args[0].nodes())

    def on_selection(result, args, kwargs) -> None:
        counts["selection.pthreads"] += len(result.pthreads)

    def on_timing(stats, args, kwargs) -> None:
        layer = _timing_layer(args, kwargs)
        counts[layer + ".instructions"] += stats.instructions
        counts["timing.instructions"] += stats.instructions
        counts["timing.pthread_instructions"] += stats.pthread_instructions
        counts["timing.pthread_launches"] += stats.pthread_launches
        counts["timing.pthread_drops"] += stats.pthread_drops

    def on_trace(result, args, kwargs) -> None:
        counts["engine.trace_instructions"] += result.instructions

    def on_load(payload, args, kwargs) -> None:
        if payload is not None:
            cache, kind, key = args[:3]
            counts["harness.artifacts.bytes_read"] += cache.path(kind, key).stat().st_size

    def on_store(_, args, kwargs) -> None:
        cache, kind, key = args[:3]
        counts["harness.artifacts.bytes_written"] += cache.path(kind, key).stat().st_size

    functions = [
        (optimizer.optimize_body, "pthreads.optimize", None),
        (body.analyze_dataflow, "pthreads.dataflow", None),
        (merger.merge_pthreads, "pthreads.merge", None),
        (advantage.evaluate_candidate, "model.evaluate", None),
        (program_selector.select_pthreads, "selection.total", on_selection),
        (selector.enumerate_candidates, "selection.enumerate", None),
        (selector.select_from_tree, "selection.select_from_tree", on_tree),
        (functional.run_program, "engine.trace", on_trace),
    ]
    for fn, name, hook in functions:
        _rebind(fn, clock.wrap(name, fn, hook))
    methods = [
        (Slicer, "slice_at", "slicing.slice", None),
        (SliceTree, "insert", "slicing.insert", None),
        (TimingSimulator, "run", _timing_layer, on_timing),
        (ArtifactCache, "load", "harness.artifacts.load", on_load),
        (ArtifactCache, "store", "harness.artifacts.store", on_store),
    ]
    for cls, attr, name, hook in methods:
        setattr(cls, attr, clock.wrap(name, getattr(cls, attr), hook))


def tier_up_spans(root) -> Dict[str, float]:
    """Seconds and count of the program's own ``tier_up`` spans."""
    seconds = 0.0
    count = 0
    for span in root.walk():
        if span.name == "tier_up":
            seconds += span.duration
            count += 1
    return {"seconds": seconds, "count": count}


def _per_kinst(seconds: float, instructions: float) -> float:
    return seconds * 1e6 / (instructions / 1000.0) if instructions else 0.0


def layer_metrics(
    clock: LayerClock, wall_s: float, tier_up: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics of one traced Table 2 pass (plain values)."""
    total, calls, counts = clock.total, clock.calls, clock.counts
    timing_names = (
        "timing.baseline",
        "timing.preexec",
        "timing.validation",
        "timing.perfect_l2",
        "timing.other",
    )
    selection_s = total["selection.total"]
    timing_s = sum(total[name] for name in timing_names)
    trace_s = total["engine.trace"]
    return {
        "slicing.slice_s": total["slicing.slice"],
        "slicing.insert_s": total["slicing.insert"],
        "slicing.slices": calls["slicing.slice"],
        "slicing.tree_nodes": counts["slicing.tree_nodes"],
        "pthreads.optimize_s": total["pthreads.optimize"],
        "pthreads.optimize_calls": calls["pthreads.optimize"],
        "pthreads.dataflow_calls": calls["pthreads.dataflow"],
        "pthreads.merge_s": total["pthreads.merge"],
        "model.evaluate_s": total["model.evaluate"],
        "model.candidates": calls["model.evaluate"],
        "selection.total_s": selection_s,
        "selection.enumerate_self_s": clock.self_time["selection.enumerate"],
        "selection.fixpoint_s": (
            total["selection.select_from_tree"] - total["selection.enumerate"]
        ),
        "selection.trees": counts["selection.trees"],
        "selection.fixpoint_iterations": counts["selection.fixpoint_iterations"],
        "selection.pthreads": counts["selection.pthreads"],
        "timing.baseline_s": total["timing.baseline"],
        "timing.preexec_s": total["timing.preexec"],
        "timing.validation_s": total["timing.validation"],
        "timing.perfect_l2_s": total["timing.perfect_l2"],
        "timing.instructions": counts["timing.instructions"],
        "timing.pthread_instructions": counts["timing.pthread_instructions"],
        "timing.pthread_launches": counts["timing.pthread_launches"],
        "timing.pthread_drops": counts["timing.pthread_drops"],
        "timing.baseline_us_per_kinst": _per_kinst(
            total["timing.baseline"], counts["timing.baseline.instructions"]
        ),
        "timing.preexec_us_per_kinst": _per_kinst(
            total["timing.preexec"], counts["timing.preexec.instructions"]
        ),
        "engine.trace_s": trace_s,
        "engine.trace_kinst_per_s": (
            counts["engine.trace_instructions"] / 1000.0 / trace_s
            if trace_s
            else 0.0
        ),
        "engine.tier_up_s": tier_up["seconds"],
        "engine.tier_ups": tier_up["count"],
        "harness.artifacts.load_s": total["harness.artifacts.load"],
        "harness.artifacts.store_s": total["harness.artifacts.store"],
        "harness.artifacts.loads": calls["harness.artifacts.load"],
        "harness.artifacts.stores": calls["harness.artifacts.store"],
        "harness.artifacts.bytes_read": counts["harness.artifacts.bytes_read"],
        "harness.artifacts.bytes_written": counts["harness.artifacts.bytes_written"],
        "layers.selection_share": selection_s / wall_s,
        "layers.timing_share": timing_s / wall_s,
        "layers.named_share": clock.covered() / wall_s,
    }
