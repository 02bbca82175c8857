"""End-to-end experiment pipeline.

One :class:`ExperimentRunner` reproduces the paper's tool flow:

1. functional cache simulation → dynamic trace with miss levels
   (the paper's trace generator);
2. baseline timing simulation → unassisted IPC (a model input);
3. slice-tree construction + aggregate-advantage selection →
   static p-threads and framework predictions;
4. pre-execution timing simulation (plus the overhead-only /
   latency-only validation modes on request) → measured statistics.

Traces, baseline runs and selections are cached per (workload, input,
hierarchy, machine, ...) so parameter sweeps (Figures 4–8) only repeat
the stages they vary.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.report import assert_clean, verification_enabled
from repro.engine.functional import (
    FunctionalResult,
    register_functional_metrics,
    run_program,
)
from repro.harness.artifacts import ArtifactCache, program_digest, stable_key
from repro.memory.hierarchy import HierarchyConfig
from repro.model.params import ModelParams, SelectionConstraints
from repro.obs import get_registry, get_tracer
from repro.selection.granularity import select_by_region
from repro.selection.program_selector import ProgramSelection, select_pthreads
from repro.timing.config import (
    BASELINE,
    LATENCY_ONLY,
    MachineConfig,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    PERFECT_L2,
    PRE_EXECUTION,
)
from repro.timing.core import Schedule, TimingSimulator
from repro.timing.stats import SimStats
from repro.workloads.common import SUITE_HIERARCHY
from repro.workloads.suite import Workload, build


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: workload + all knobs the paper varies.

    Attributes:
        workload: suite workload name.
        input_name: input the measurement runs on.
        constraints: p-thread selection constraints (Figures 4/5).
        machine: core configuration (width sweeps).
        hierarchy: memory system; ``None`` uses the workload default.
        model_mem_latency: ``Lmem`` presented to the *framework*; when
            it differs from the simulated memory latency this is the
            paper's Figure 8 over-/under-specification methodology.
        model_bw_seq: sequencing width presented to the framework
            (processor-width cross-validation); ``None`` uses the
            simulated machine's width.
        selection_input: input whose profile drives selection (Figure 7
            static scenario uses "test" while measuring on "train").
        selection_prefix: select using only the first N dynamic
            instructions of the trace (Figure 7 dynamic scenario).
        granularity: region size for region-specialized selection
            (Figure 6); ``None`` selects over the whole run.
        effective_latency: refine ``Lmem`` per static load using the
            exposed-stall measurement from the baseline run — the
            critical-path extension the paper lists as future work.
        validate: also run the overhead-only / latency-only /
            perfect-L2 validation simulations.
        verify: statically verify the selection's p-thread invariants
            (PT001–PT006) and fail on any error.  Unlike the
            ``REPRO_VERIFY`` transformation hooks, this also covers
            selections loaded from the persistent artifact cache.
    """

    workload: str
    input_name: str = "train"
    constraints: SelectionConstraints = field(default_factory=SelectionConstraints)
    machine: MachineConfig = field(default_factory=MachineConfig)
    hierarchy: Optional[HierarchyConfig] = None
    model_mem_latency: Optional[int] = None
    model_bw_seq: Optional[int] = None
    selection_input: Optional[str] = None
    selection_prefix: Optional[int] = None
    granularity: Optional[int] = None
    effective_latency: bool = False
    validate: bool = False
    verify: bool = False


@dataclass
class ExperimentResult:
    """Everything one experiment cell produced."""

    config: ExperimentConfig
    workload: Workload
    functional: FunctionalResult
    baseline: SimStats
    selection: ProgramSelection
    preexec: SimStats
    validation: Dict[str, SimStats] = field(default_factory=dict)
    num_regions: int = 1
    #: Wall-clock seconds this cell spent in each pipeline stage
    #: (``trace`` / ``baseline`` / ``selection`` / ``timing`` /
    #: ``validation``).  Stages satisfied from a cache report (near)
    #: zero, so a sweep's timings expose exactly what caching saved.
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Fractional speedup of pre-execution over the baseline."""
        return self.preexec.speedup_over(self.baseline)

    @property
    def coverage(self) -> float:
        return self.preexec.coverage_fraction

    @property
    def full_coverage(self) -> float:
        return self.preexec.full_coverage_fraction

    def summary_row(self) -> Dict[str, float]:
        """Flat metrics dict for table/figure rendering."""
        return {
            "base_ipc": self.baseline.ipc,
            "preexec_ipc": self.preexec.ipc,
            "speedup_pct": 100.0 * self.speedup,
            "coverage_pct": 100.0 * self.coverage,
            "full_coverage_pct": 100.0 * self.full_coverage,
            "overhead_pct": 100.0 * self.preexec.instruction_overhead,
            "pthread_len": self.preexec.avg_pthread_length,
            "launches": float(self.preexec.pthread_launches),
            "static_pthreads": float(len(self.selection.pthreads)),
        }


#: Pipeline stages in execution order, as a deadline check sees them.
PIPELINE_STAGES = ("trace", "baseline", "selection", "timing", "validation")

#: The validation stage's timing runs (the paper's Table 2 validation
#: columns), keyed as in :attr:`ExperimentResult.validation`.
VALIDATION_RUNS = (
    ("overhead_execute", OVERHEAD_EXECUTE),
    ("overhead_sequence", OVERHEAD_SEQUENCE),
    ("latency_only", LATENCY_ONLY),
)


@dataclass
class PartialExperimentResult:
    """What a budget-cut experiment had finished when the deadline hit.

    Soft-deadline semantics (the fuzz runner's pattern): the budget is
    only consulted *between* stages, and between the validation stage's
    timing runs, so every stage listed in ``stages_completed`` ran to
    completion and its artifacts are in the runner's caches — a retry
    with a larger budget resumes from there for free.  ``next_stage`` is
    the stage the deadline prevented or cut short.
    """

    config: ExperimentConfig
    next_stage: str
    stages_completed: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)


class ExperimentDeadlineError(RuntimeError):
    """Raised when a per-request soft budget expires mid-pipeline."""

    def __init__(self, partial: PartialExperimentResult) -> None:
        super().__init__(
            f"experiment budget exceeded before stage {partial.next_stage!r} "
            f"(completed: {', '.join(partial.stages_completed) or 'none'})"
        )
        self.partial = partial


#: Stages the runner accounts under ``harness.stage.<stage>.*``.  The
#: first four are cached (and are artifact-store kinds); ``timing`` and
#: ``validation`` always compute.
HARNESS_STAGES = (
    "trace", "baseline", "perfect_l2", "selection", "timing", "validation"
)

#: Bucket bounds (seconds) of the ``harness.stage.<stage>.seconds``
#: histograms: one observation per computation.
STAGE_SECONDS_BUCKETS = (0.01, 0.1, 1, 10, 100)


def _register_metrics(registry) -> None:
    """Register every harness metric, so a snapshot carries them all
    before the first stage runs (the size gauges stay 0 until a
    snapshot-taker sets them from the store)."""
    for outcome in ("hits", "disk_hits", "misses"):
        registry.counter(f"harness.cache.{outcome}")
    registry.gauge("harness.cache.entries")
    registry.gauge("harness.cache.bytes")
    for stage in HARNESS_STAGES:
        for name in ("hits", "disk_hits", "instructions"):
            registry.counter(f"harness.stage.{stage}.{name}")
        registry.histogram(
            f"harness.stage.{stage}.seconds", buckets=STAGE_SECONDS_BUCKETS
        )


def _count(stage: str, outcome: str) -> None:
    """One request for ``stage`` served from memory (``hits``) or the
    store (``disk_hits``)."""
    registry = get_registry()
    registry.counter(f"harness.cache.{outcome}").inc()
    registry.counter(f"harness.stage.{stage}.{outcome}").inc()
    if stage == "trace":
        # No functional simulation ran; its catalog counters still
        # belong in this registry's snapshot.
        register_functional_metrics(registry)


def _computed(stage: str, seconds: float, instructions: int = 0) -> None:
    """One computation of ``stage`` (a ``harness.cache.misses``)."""
    registry = get_registry()
    registry.counter("harness.cache.misses").inc()
    registry.histogram(
        f"harness.stage.{stage}.seconds", buckets=STAGE_SECONDS_BUCKETS
    ).observe(seconds)
    registry.counter(f"harness.stage.{stage}.instructions").inc(instructions)


class ExperimentRunner:
    """Pipeline driver with trace/baseline/selection caching across cells.

    Two cache layers back every expensive stage, both addressed by one
    :func:`stable_key` per entry: an in-memory dict for repeats within
    this process, and (when ``artifacts`` is given) the persistent
    content-addressed :class:`ArtifactCache`, which survives across
    sessions and is shared by the worker processes of a parallel sweep.

    Every stage outcome is counted straight into the metrics registry
    (``get_registry()`` at the time of the event, so a sweep worker's
    per-cell registry sees its own cells): the ``harness.cache.*``
    totals plus ``harness.stage.<stage>.*`` per stage.  Concurrent
    callers of one key (serve's thread pool) compute it once.
    """

    def __init__(
        self,
        max_instructions: int = 10_000_000,
        artifacts: Optional[ArtifactCache] = None,
    ) -> None:
        self.max_instructions = max_instructions
        self.artifacts = artifacts
        self._workloads: Dict[Tuple, Workload] = {}
        self._memo: Dict[str, object] = {}
        self._locks: Dict[str, threading.Lock] = {}
        _register_metrics(get_registry())

    # -- cached stages --------------------------------------------------

    def workload(
        self,
        name: str,
        input_name: str,
        hierarchy: Optional[HierarchyConfig] = None,
    ) -> Workload:
        # Key on the *resolved* hierarchy: ``None`` and an explicitly
        # passed default otherwise build duplicate workloads (re-running
        # the generators) in sweeps that mix the two spellings.
        resolved = hierarchy if hierarchy is not None else SUITE_HIERARCHY
        key = (name, input_name, resolved)
        if key not in self._workloads:
            self._workloads[key] = build(name, input_name, hierarchy=resolved)
        return self._workloads[key]

    def trace(self, workload: Workload) -> FunctionalResult:
        return self._cached(
            "trace",
            self._stage_key("trace", workload),
            lambda: run_program(
                workload.program,
                workload.hierarchy,
                max_instructions=self.max_instructions,
            ),
            codec=FunctionalResult,
        )

    def baseline(self, workload: Workload, machine: MachineConfig) -> SimStats:
        return self._cached(
            "baseline",
            self._stage_key("baseline", workload, machine=machine),
            lambda: TimingSimulator(
                workload.program, workload.hierarchy, machine
            ).run(BASELINE, max_instructions=self.max_instructions),
            codec=SimStats,
        )

    def perfect_l2(self, workload: Workload, machine: MachineConfig) -> SimStats:
        return self._cached(
            "perfect_l2",
            self._stage_key("perfect_l2", workload, machine=machine),
            lambda: TimingSimulator(
                workload.program, workload.hierarchy, machine
            ).run(PERFECT_L2, max_instructions=self.max_instructions),
            codec=SimStats,
        )

    # -- one memory -> store -> compute path ----------------------------

    def _stage_key(self, kind: str, workload: Workload, **parts) -> str:
        """The store key of one stage output (also its memory key)."""
        return stable_key(
            kind,
            program=program_digest(workload.program),
            workload=workload.name,
            input=workload.input_name,
            hierarchy=workload.hierarchy,
            max_instructions=self.max_instructions,
            **parts,
        )

    def _cached(self, kind: str, key: str, compute: Callable, codec=None):
        """``kind``'s output under ``key``: from memory, the store, or
        ``compute()``, in that order.

        ``codec`` (a class with ``to_dict``/``from_dict``) converts the
        JSON kinds; ``None`` stores the object itself (the pickle kind).
        A lock per key makes concurrent callers of one key compute it
        once, and never holds up callers of another key.
        """
        value = self._memo.get(key)
        if value is None:
            # dict.setdefault is atomic for str keys, so every caller of
            # one key gets the same lock.
            with self._locks.setdefault(key, threading.Lock()):
                value = self._memo.get(key)
                if value is None:
                    value = self._memo[key] = self._load_or_compute(
                        kind, key, compute, codec
                    )
                    return value
        _count(kind, "hits")
        return value

    def _load_or_compute(self, kind: str, key: str, compute: Callable, codec):
        if self.artifacts is not None:
            payload = self.artifacts.load(kind, key)
            if payload is not None:
                _count(kind, "disk_hits")
                return payload if codec is None else codec.from_dict(payload)
        start = time.perf_counter()
        value = compute()
        # Traces and SimStats count simulated instructions; selections
        # have none.
        _computed(
            kind,
            time.perf_counter() - start,
            getattr(value, "instructions", 0),
        )
        if self.artifacts is not None:
            self.artifacts.store(
                kind, key, value if codec is None else value.to_dict()
            )
        return value

    # -- pipeline -------------------------------------------------------

    def model_params(
        self, config: ExperimentConfig, workload: Workload, base_ipc: float
    ) -> ModelParams:
        mem_latency = (
            config.model_mem_latency
            if config.model_mem_latency is not None
            else workload.hierarchy.mem_latency
        )
        return ModelParams(
            bw_seq=(
                config.model_bw_seq
                if config.model_bw_seq is not None
                else config.machine.bw_seq
            ),
            unassisted_ipc=max(base_ipc, 0.05),
            mem_latency=mem_latency,
            load_latency=workload.hierarchy.l1.hit_latency,
        )

    def run(
        self,
        config: ExperimentConfig,
        deadline: Optional[float] = None,
    ) -> ExperimentResult:
        """Execute one experiment cell end to end.

        ``deadline`` is an absolute ``time.monotonic()`` instant (the
        caller's soft budget).  It is checked *between* stages and
        between validation runs only — a simulation that has started
        always finishes — and an expired
        budget raises :class:`ExperimentDeadlineError` carrying a
        :class:`PartialExperimentResult` of everything completed so far.
        """
        timings: Dict[str, float] = {}
        tracer = get_tracer()
        with tracer.span(
            "experiment", workload=config.workload, input=config.input_name
        ):
            return self._run_traced(config, timings, tracer, deadline)

    @staticmethod
    def _check_deadline(
        deadline: Optional[float],
        next_stage: str,
        config: ExperimentConfig,
        timings: Dict[str, float],
    ) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            done = [s for s in PIPELINE_STAGES if s in timings]
            raise ExperimentDeadlineError(
                PartialExperimentResult(
                    config=config,
                    next_stage=next_stage,
                    stages_completed=done,
                    timings=dict(timings),
                )
            )

    def _run_traced(
        self,
        config: ExperimentConfig,
        timings: Dict[str, float],
        tracer,
        deadline: Optional[float] = None,
    ) -> ExperimentResult:
        workload = self.workload(
            config.workload, config.input_name, config.hierarchy
        )
        self._check_deadline(deadline, "trace", config, timings)
        with tracer.span("trace") as trace_span:
            functional = self.trace(workload)
        timings["trace"] = trace_span.duration
        self._check_deadline(deadline, "baseline", config, timings)
        with tracer.span("baseline") as base_span:
            base = self.baseline(workload, config.machine)
        timings["baseline"] = base_span.duration

        # --- selection statistics may come from a different profile ---
        if config.selection_input is not None:
            profile_workload = self.workload(
                config.workload, config.selection_input, config.hierarchy
            )
            with tracer.span(
                "trace", profile=config.selection_input
            ) as trace_span:
                profile_trace = self.trace(profile_workload)
            timings["trace"] += trace_span.duration
            with tracer.span(
                "baseline", profile=config.selection_input
            ) as base_span:
                profile_base = self.baseline(profile_workload, config.machine)
            timings["baseline"] += base_span.duration
            profile_ipc = profile_base.ipc
        else:
            profile_workload = workload
            profile_trace = functional
            profile_ipc = base.ipc
        params = self.model_params(config, workload, profile_ipc)

        self._check_deadline(deadline, "selection", config, timings)
        schedule: Optional[Schedule] = None
        num_regions = 1
        with tracer.span("selection") as selection_span:
            if config.granularity is not None:
                # Region-specialized selection stays uncached: its output
                # (a per-region activation schedule) is not content-
                # addressable by the same small key, and Figure 6 is the
                # only user.
                start = time.perf_counter()
                granular = select_by_region(
                    profile_workload.program,
                    profile_trace.trace,
                    params,
                    region_size=config.granularity,
                    constraints=config.constraints,
                )
                schedule = granular.schedule()
                num_regions = len(granular.regions)
                # Report the aggregate of the region selections.
                selection = _aggregate_regions(
                    granular, params, config.constraints
                )
                _computed("selection", time.perf_counter() - start)
            else:
                region = None
                if config.selection_prefix is not None:
                    region = (0, config.selection_prefix)
                lmem_overrides = None
                if config.effective_latency:
                    lmem_overrides = {
                        pc: base.effective_latency(pc, params.mem_latency)
                        for pc in base.miss_exposure
                    }

                def select() -> ProgramSelection:
                    with tracer.span(
                        "slice+select", workload=profile_workload.name
                    ):
                        return select_pthreads(
                            profile_workload.program,
                            profile_trace.trace,
                            params,
                            constraints=config.constraints,
                            region=region,
                            lmem_overrides=lmem_overrides,
                        )

                selection = self._cached(
                    "selection",
                    self._stage_key(
                        "selection",
                        profile_workload,
                        params=params,
                        constraints=config.constraints,
                        region=region,
                        lmem_overrides=lmem_overrides,
                    ),
                    select,
                )
        timings["selection"] = selection_span.duration

        if config.verify or verification_enabled():
            # Covers cache-loaded selections, which the in-pipeline
            # REPRO_VERIFY hooks never see.
            from repro.analysis.verifier import verify_selection

            assert_clean(
                verify_selection(
                    profile_workload.program,
                    selection.pthreads,
                    config.constraints,
                ),
                f"experiment({config.workload!r}) selection",
            )

        # --- measurement ----------------------------------------------
        def simulate(mode) -> SimStats:
            if schedule is not None:
                sim = TimingSimulator(
                    workload.program,
                    workload.hierarchy,
                    config.machine,
                    schedule=schedule,
                )
            else:
                sim = TimingSimulator(
                    workload.program,
                    workload.hierarchy,
                    config.machine,
                    pthreads=selection.pthreads,
                )
            return sim.run(mode, max_instructions=self.max_instructions)

        self._check_deadline(deadline, "timing", config, timings)
        with tracer.span("timing") as timing_span:
            preexec = simulate(PRE_EXECUTION)
        elapsed = timing_span.duration
        timings["timing"] = elapsed
        _computed(
            "timing",
            elapsed,
            preexec.instructions + preexec.pthread_instructions,
        )
        validation: Dict[str, SimStats] = {}
        if config.validate:
            with tracer.span("validation") as validation_span:
                for name, mode in VALIDATION_RUNS:
                    # Each run is as long as the pre-execution one, so
                    # the budget is checked before every run.
                    self._check_deadline(
                        deadline, "validation", config, timings
                    )
                    validation[name] = simulate(mode)
            elapsed = validation_span.duration
            timings["validation"] = elapsed
            _computed("validation", elapsed)
            # perfect_l2 times/counts itself (it has its own cache).
            with tracer.span("validation", kind="perfect_l2"):
                validation["perfect_l2"] = self.perfect_l2(
                    workload, config.machine
                )

        return ExperimentResult(
            config=config,
            workload=workload,
            functional=functional,
            baseline=base,
            selection=selection,
            preexec=preexec,
            validation=validation,
            num_regions=num_regions,
            timings=timings,
        )


def _aggregate_regions(granular, params, constraints) -> ProgramSelection:
    """Collapse per-region selections into one reportable selection.

    The activation schedule keeps the per-region p-thread sets; this
    aggregate only exists so reports have program-level predictions.
    """
    from repro.selection.program_selector import ProgramPrediction

    pthreads = [p for region in granular.regions for p in region.pthreads]
    totals = dict(
        launches=0,
        injected_instructions=0,
        misses_covered=0,
        misses_fully_covered=0,
        lt_agg=0.0,
        oh_agg=0.0,
        sample_instructions=0,
        sample_l2_misses=0,
    )
    for region in granular.regions:
        prediction = region.selection.prediction
        totals["launches"] += prediction.launches
        totals["injected_instructions"] += prediction.injected_instructions
        totals["misses_covered"] += prediction.misses_covered
        totals["misses_fully_covered"] += prediction.misses_fully_covered
        totals["lt_agg"] += prediction.lt_agg
        totals["oh_agg"] += prediction.oh_agg
        totals["sample_instructions"] += prediction.sample_instructions
        totals["sample_l2_misses"] += prediction.sample_l2_misses
    prediction = ProgramPrediction(
        unassisted_ipc=params.unassisted_ipc,
        sequencing_width=params.bw_seq,
        **totals,
    )
    return ProgramSelection(
        pthreads=pthreads,
        tree_selections={},
        prediction=prediction,
        params=params,
        constraints=constraints,
    )
