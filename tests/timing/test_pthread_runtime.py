"""Tests for the pre-execution runtime inside the timing simulator."""

import gc

import pytest

from repro.isa import DataImage, assemble
from repro.memory import CacheConfig, HierarchyConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import PThreadBody
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.timing.config import (
    BASELINE,
    LATENCY_ONLY,
    MachineConfig,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    PRE_EXECUTION,
)
from repro.timing.core import TimingSimulator

#: A loop striding through a big array — every iteration misses.
STRIDE_SOURCE = """
    addi a0, zero, 0
    addi a1, zero, 400
    addi s0, zero, 1048576
loop:
    bge  a0, a1, done
    lw   t0, 0(s0)
    add  s4, s4, t0
    addi s0, s0, 256
    addi a0, a0, 1
    j    loop
done:
    halt
"""

#: Trigger = the induction (pc 7, 'addi s0, s0, 256'); body skips two
#: iterations ahead and pre-executes the load (pc 4).
LOAD_PC = 4
TRIGGER_PC = 6


def stride_pthread(unroll=4):
    instructions = [
        Instruction(Opcode.ADDI, rd=16, rs1=16, imm=256 * unroll, pc=6),
        Instruction(Opcode.LW, rd=8, rs1=16, imm=0, pc=LOAD_PC),
    ]
    body = PThreadBody(instructions)
    prediction = PThreadPrediction(
        dc_trig=400,
        size=body.size,
        misses_covered=390,
        misses_fully_covered=380,
        lt_agg=27000.0,
        oh_agg=100.0,
    )
    return StaticPThread(
        trigger_pc=TRIGGER_PC,
        body=body,
        target_load_pcs=(LOAD_PC,),
        prediction=prediction,
    )


@pytest.fixture
def program():
    return assemble(STRIDE_SOURCE, data=DataImage())


@pytest.fixture
def rich_hierarchy():
    """Memory system where miss *latency*, not bandwidth, binds —
    so coverage translates into speedup."""
    return HierarchyConfig(
        l1=CacheConfig("L1D", 1024, 32, 2, 2),
        l2=CacheConfig("L2", 4096, 64, 4, 6),
        mem_latency=70,
        mshr_entries=64,
        memory_bus_bytes=64,
        memory_bus_divisor=1,
    )


def run(program, hierarchy, mode, pthreads=None, machine=None, schedule=None):
    sim = TimingSimulator(
        program, hierarchy, machine, pthreads=pthreads, schedule=schedule
    )
    return sim.run(mode)


class TestLaunching:
    def test_pthreads_launch_at_triggers(self, program, tiny_hierarchy):
        stats = run(program, tiny_hierarchy, PRE_EXECUTION, [stride_pthread()])
        assert stats.pthread_launches > 0
        assert stats.launches_by_trigger.get(TRIGGER_PC, 0) > 0
        # launches_by_trigger counts actual launches; drops are tallied
        # separately, and attempts = launches + drops per trigger.
        assert stats.pthread_launches == stats.launches_by_trigger[TRIGGER_PC]
        assert stats.pthread_drops == stats.drops_by_trigger.get(TRIGGER_PC, 0)

    def test_baseline_mode_never_launches(self, program, tiny_hierarchy):
        stats = run(program, tiny_hierarchy, BASELINE, [stride_pthread()])
        assert stats.pthread_launches == 0

    def test_injected_instruction_count(self, program, tiny_hierarchy):
        pthread = stride_pthread()
        stats = run(program, tiny_hierarchy, PRE_EXECUTION, [pthread])
        assert stats.pthread_instructions == (
            stats.pthread_launches * pthread.size
        )

    def test_zero_contexts_drop_everything(self, program, tiny_hierarchy):
        machine = MachineConfig(pthread_contexts=0)
        stats = run(
            program, tiny_hierarchy, PRE_EXECUTION, [stride_pthread()], machine
        )
        assert stats.pthread_launches == 0
        assert stats.pthread_drops > 0

    def test_launches_and_drops_split_by_trigger(self, program, tiny_hierarchy):
        """Regression: a long body on one context keeps it busy across
        triggers, so some launch attempts drop; the per-trigger dicts
        must split exactly into launches vs drops (launches_by_trigger
        used to count *attempts*)."""
        instructions = [
            Instruction(
                Opcode.ADDI, rd=16, rs1=16, imm=256 * (i + 1), pc=6
            )
            for i in range(24)
        ] + [Instruction(Opcode.LW, rd=8, rs1=16, imm=0, pc=LOAD_PC)]
        body = PThreadBody(instructions)
        pthread = StaticPThread(
            trigger_pc=TRIGGER_PC,
            body=body,
            target_load_pcs=(LOAD_PC,),
            prediction=PThreadPrediction(
                dc_trig=400, size=body.size, misses_covered=100,
                misses_fully_covered=50, lt_agg=7000.0, oh_agg=100.0,
            ),
        )
        stats = run(
            program,
            tiny_hierarchy,
            PRE_EXECUTION,
            [pthread],
            MachineConfig(pthread_contexts=1),
        )
        assert stats.pthread_drops > 0
        assert stats.pthread_launches > 0
        assert sum(stats.launches_by_trigger.values()) == stats.pthread_launches
        assert sum(stats.drops_by_trigger.values()) == stats.pthread_drops
        attempts = stats.launches_by_trigger.get(
            TRIGGER_PC, 0
        ) + stats.drops_by_trigger.get(TRIGGER_PC, 0)
        assert attempts == stats.pthread_launches + stats.pthread_drops

    def test_more_contexts_fewer_drops(self, program, tiny_hierarchy):
        few = run(
            program,
            tiny_hierarchy,
            PRE_EXECUTION,
            [stride_pthread()],
            MachineConfig(pthread_contexts=1),
        )
        many = run(
            program,
            tiny_hierarchy,
            PRE_EXECUTION,
            [stride_pthread()],
            MachineConfig(pthread_contexts=8),
        )
        assert many.pthread_drops <= few.pthread_drops


class TestCoverageAndSpeedup:
    def test_pre_execution_covers_and_speeds_up(self, program, rich_hierarchy):
        base = run(program, rich_hierarchy, BASELINE)
        pre = run(program, rich_hierarchy, PRE_EXECUTION, [stride_pthread()])
        assert pre.misses_covered > 0.5 * pre.l2_misses
        assert pre.speedup_over(base) > 0.05

    def test_deeper_unrolling_more_full_coverage(self, program, tiny_hierarchy):
        shallow = run(
            program, tiny_hierarchy, PRE_EXECUTION, [stride_pthread(unroll=1)]
        )
        deep = run(
            program, tiny_hierarchy, PRE_EXECUTION, [stride_pthread(unroll=6)]
        )
        assert deep.misses_fully_covered >= shallow.misses_fully_covered

    def test_latency_only_at_least_as_fast(self, program, tiny_hierarchy):
        pre = run(program, tiny_hierarchy, PRE_EXECUTION, [stride_pthread()])
        free = run(program, tiny_hierarchy, LATENCY_ONLY, [stride_pthread()])
        assert free.cycles <= pre.cycles * 1.05


class TestOverheadModes:
    def test_overhead_modes_never_cover(self, program, tiny_hierarchy):
        for mode in (OVERHEAD_EXECUTE, OVERHEAD_SEQUENCE):
            stats = run(program, tiny_hierarchy, mode, [stride_pthread()])
            assert stats.misses_covered == 0

    def test_overhead_slows_down(self, program, tiny_hierarchy):
        base = run(program, tiny_hierarchy, BASELINE)
        # A fat useless p-thread stealing lots of bandwidth.
        fat_body = PThreadBody(
            [Instruction(Opcode.ADDI, rd=16, rs1=16, imm=1)] * 24
        )
        fat = StaticPThread(
            trigger_pc=TRIGGER_PC,
            body=fat_body,
            target_load_pcs=(LOAD_PC,),
            prediction=PThreadPrediction(400, 24, 0, 0, 0.0, 0.0),
        )
        overhead = run(program, tiny_hierarchy, OVERHEAD_SEQUENCE, [fat])
        # Stolen slots can hide behind memory stalls, so allow noise,
        # but the injected work must be accounted and never *speed up*
        # the program materially.
        assert overhead.pthread_instructions > 1000
        assert overhead.cycles >= 0.98 * base.cycles

    def test_execute_and_sequence_leave_same_cache_state(
        self, program, tiny_hierarchy
    ):
        """The paper's two overhead measurements should agree closely."""
        execute = run(
            program, tiny_hierarchy, OVERHEAD_EXECUTE, [stride_pthread()]
        )
        sequence = run(
            program, tiny_hierarchy, OVERHEAD_SEQUENCE, [stride_pthread()]
        )
        assert execute.l2_misses == sequence.l2_misses
        assert abs(execute.cycles - sequence.cycles) <= 0.05 * sequence.cycles


class TestSchedules:
    def test_region_schedule_limits_launches(self, program, tiny_hierarchy):
        full = run(program, tiny_hierarchy, PRE_EXECUTION, [stride_pthread()])
        # Active only for the first ~quarter of the run.
        schedule = [
            (0, 1000, [stride_pthread()]),
            (1000, 1 << 60, []),
        ]
        partial = run(
            program, tiny_hierarchy, PRE_EXECUTION, schedule=schedule
        )
        assert 0 < partial.pthread_launches < full.pthread_launches

    def test_pthreads_and_schedule_mutually_exclusive(
        self, program, tiny_hierarchy
    ):
        with pytest.raises(ValueError):
            TimingSimulator(
                program,
                tiny_hierarchy,
                pthreads=[stride_pthread()],
                schedule=[(0, 10, [])],
            )


class TestRunLifetime:
    @pytest.mark.parametrize("engine", ["interp", "tiered"])
    def test_run_leaves_no_cyclic_garbage(self, program, tiny_hierarchy, engine):
        """Reference counting alone frees a finished run.  A cycle
        through the bound access closures would keep the hierarchy (its
        bus slots and in-flight lines) and the run's state alive until
        the cyclic collector ran, raising peak memory."""
        gc.collect()
        gc.disable()
        try:
            TimingSimulator(
                program, tiny_hierarchy, pthreads=[stride_pthread()],
                engine=engine,
            ).run(PRE_EXECUTION)
            assert gc.collect() == 0
        finally:
            gc.enable()
