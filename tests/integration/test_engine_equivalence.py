"""Differential equivalence: compiled/tiered engines vs. interpreter.

The compiled basic-block engine and the tiered engine layered on top
of it are optimizations, not second models: for every bundled workload
they must reproduce the interpreter's results bit for bit — the packed
functional trace, every statistic, every timing-simulator counter, in
every simulation mode.  These tests are the contract that keeps the
three engines pinned together.
"""

import random

import pytest

from repro.engine.compiler import (
    ENGINE_COMPILED,
    ENGINE_INTERP,
    ENGINE_TIERED,
)
from repro.engine.functional import FunctionalSimulator
from repro.isa import DataImage, assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import ALIASES
from repro.model.params import ModelParams
from repro.pthreads.body import VIRTUAL_REG_BASE, PThreadBody
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.selection.program_selector import select_pthreads
from repro.timing.config import (
    BASELINE,
    LATENCY_ONLY,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    PERFECT_L2,
    PRE_EXECUTION,
)
from repro.timing.core import TimingSimulator
from repro.workloads.suite import SUITE, build

ALL_WORKLOADS = list(SUITE) + ["pharmacy"]

#: Every simulation mode: no p-threads, full pre-execution, both
#: overhead-only flavours (execute-without-filling runs the phantom
#: load path; sequence-only steals slots and discards bodies), the
#: latency-only free ride, and the perfect-L2 bound.
MODES = (
    BASELINE,
    PRE_EXECUTION,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    LATENCY_ONLY,
    PERFECT_L2,
)

_CACHE = {}


def _workload(name):
    if name not in _CACHE:
        _CACHE[name] = build(name)
    return _CACHE[name]


def _selected_pthreads(name):
    """Real selected p-threads for ``name`` (memoized per session)."""
    key = ("pthreads", name)
    if key not in _CACHE:
        workload = _workload(name)
        result = FunctionalSimulator(
            workload.program, workload.hierarchy, engine=ENGINE_INTERP
        ).run()
        params = ModelParams(
            bw_seq=8,
            unassisted_ipc=1.0,
            mem_latency=workload.hierarchy.mem_latency,
            load_latency=workload.hierarchy.l1.hit_latency,
        )
        selection = select_pthreads(workload.program, result.trace, params)
        _CACHE[key] = selection.pthreads
    return _CACHE[key]


def _diff(a, b):
    return {k: (a[k], b[k]) for k in a if a[k] != b[k]}


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_functional_results_bit_identical(name):
    workload = _workload(name)
    results = {}
    for engine in (ENGINE_INTERP, ENGINE_COMPILED, ENGINE_TIERED):
        sim = FunctionalSimulator(
            workload.program, workload.hierarchy, engine=engine
        )
        results[engine] = sim.run().to_dict()
        assert sim.last_engine == engine
    for engine in (ENGINE_COMPILED, ENGINE_TIERED):
        assert results[ENGINE_INTERP] == results[engine], (
            engine,
            _diff(results[ENGINE_INTERP], results[engine]),
        )


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_functional_no_trace_bit_identical(name):
    workload = _workload(name)
    results = {}
    for engine in (ENGINE_INTERP, ENGINE_COMPILED, ENGINE_TIERED):
        sim = FunctionalSimulator(
            workload.program, workload.hierarchy, engine=engine
        )
        results[engine] = sim.run(collect_trace=False).to_dict()
        assert sim.last_engine == engine
    for engine in (ENGINE_COMPILED, ENGINE_TIERED):
        assert results[ENGINE_INTERP] == results[engine], engine


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_timing_stats_bit_identical_across_modes(name):
    workload = _workload(name)
    pthreads = _selected_pthreads(name)
    for mode in MODES:
        stats = {}
        for engine in (ENGINE_INTERP, ENGINE_COMPILED, ENGINE_TIERED):
            sim = TimingSimulator(
                workload.program,
                workload.hierarchy,
                pthreads=pthreads,
                engine=engine,
            )
            stats[engine] = sim.run(mode).to_dict()
            assert sim.last_engine == engine
        for engine in (ENGINE_COMPILED, ENGINE_TIERED):
            assert stats[ENGINE_INTERP] == stats[engine], (
                mode.name,
                engine,
                _diff(stats[ENGINE_INTERP], stats[engine]),
            )


#: A jump-table dispatch loop: ``jr`` cycles through four cases (so the
#: BTB mispredicts), a branch on a random bit mispredicts about half the
#: time, the cases load, multiply and store, and the array walk misses
#: in the L2.
JR_SOURCE = """
    addi s0, zero, 1048576
    addi a0, zero, 0
    addi a1, zero, 600
    addi s1, zero, 4096
    addi s2, zero, 8192
loop:
    bge  a0, a1, done
    slli t0, a0, 2
    add  t3, t0, s2
    lw   t4, 0(t3)
coin:
    beq  t4, zero, dispatch
    addi s6, s6, 1
dispatch:
    andi t0, a0, 3
    slli t0, t0, 2
    add  t0, t0, s1
    lw   t1, 0(t0)
    jr   t1
case0:
    lw   t2, 0(s0)
    add  s4, s4, t2
    j    next
case1:
    lw   t2, 64(s0)
    sub  s4, s4, t2
    j    next
case2:
    mul  s5, s5, a0
    j    next
case3:
    sw   a0, 0(s0)
next:
    addi s0, s0, 256
step:
    addi a0, a0, 1
    j    loop
done:
    halt
"""

def _jr_program():
    labels = assemble(JR_SOURCE).labels
    data = DataImage()
    data.store_words(4096, [labels[f"case{k}"] for k in range(4)])
    coin = random.Random(7)
    data.store_words(8192, [coin.randrange(2) for _ in range(601)])
    return assemble(JR_SOURCE, data=data, name="jump_table")


def _pthread(trigger_pc, instructions, instances_ahead=0):
    body = PThreadBody(instructions)
    return StaticPThread(
        trigger_pc=trigger_pc,
        body=body,
        target_load_pcs=(),
        prediction=PThreadPrediction(
            dc_trig=1, size=body.size, misses_covered=0,
            misses_fully_covered=0, lt_agg=0.0, oh_agg=0.0,
        ),
        instances_ahead=instances_ahead,
    )


def _jr_pthreads(program):
    """Hand-written p-threads covering every body instruction kind: a
    store that a later load forwards from, a multiply, a dead load into
    ``zero``, an unseeded virtual register, a body longer than one
    injection burst, and a branch body posting fetch hints."""
    r = ALIASES
    v0, v1 = VIRTUAL_REG_BASE, VIRTUAL_REG_BASE + 1
    labels = program.labels
    load_body = [
        Instruction(Opcode.ADDI, rd=v0, rs1=r["s0"], imm=512),
        Instruction(Opcode.SW, rs1=v0, rs2=r["a0"], imm=0),
        Instruction(Opcode.LW, rd=r["t3"], rs1=v0, imm=0),
        Instruction(Opcode.MUL, rd=r["t4"], rs1=r["t3"], rs2=r["a0"]),
        Instruction(Opcode.LW, rd=r["zero"], rs1=v0, imm=128),
        Instruction(Opcode.ADD, rd=r["t5"], rs1=r["t4"], rs2=v1),
        Instruction(Opcode.SLLI, rd=r["t6"], rs1=r["t5"], imm=6),
        Instruction(Opcode.XOR, rd=r["t6"], rs1=r["t6"], rs2=r["s4"]),
        Instruction(Opcode.ANDI, rd=r["t6"], rs1=r["t6"], imm=4032),
        Instruction(Opcode.ADD, rd=r["t6"], rs1=r["t6"], rs2=v0),
        Instruction(Opcode.LW, rd=r["t7"], rs1=r["t6"], imm=64),
        Instruction(Opcode.LW, rd=r["u0"], rs1=r["s0"], imm=0),
    ]
    # Launched once ``a0`` has stepped to i + 1: resolves iteration
    # i + 2's coin branch, with its outcome ready about as the main
    # thread fetches that branch.
    branch_body = [
        Instruction(Opcode.ADDI, rd=r["u1"], rs1=r["a0"], imm=1),
        Instruction(Opcode.SLLI, rd=r["u1"], rs1=r["u1"], imm=2),
        Instruction(Opcode.ADD, rd=r["u1"], rs1=r["u1"], rs2=r["s2"]),
        Instruction(Opcode.LW, rd=r["u2"], rs1=r["u1"], imm=0),
        Instruction(
            Opcode.BEQ, rs1=r["u2"], rs2=r["zero"], target=labels["dispatch"],
            pc=labels["coin"],
        ),
    ]
    return [
        _pthread(labels["next"], load_body),
        _pthread(labels["step"], branch_body, instances_ahead=2),
    ]


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.name)
def test_jump_table_program_bit_identical(mode, tiny_hierarchy):
    program = _jr_program()
    pthreads = _jr_pthreads(program)
    stats = {}
    for engine in (ENGINE_INTERP, ENGINE_COMPILED, ENGINE_TIERED):
        sim = TimingSimulator(
            program, tiny_hierarchy, pthreads=pthreads, engine=engine
        )
        stats[engine] = sim.run(mode).to_dict()
        assert sim.last_engine == engine
    assert stats[ENGINE_INTERP]["mispredictions"] > 0
    if mode.launch:
        assert stats[ENGINE_INTERP]["pthread_launches"] > 0
    if mode.prefetch:
        assert stats[ENGINE_INTERP]["mispredicts_covered"] > 0
    for engine in (ENGINE_COMPILED, ENGINE_TIERED):
        assert stats[ENGINE_INTERP] == stats[engine], (
            engine,
            _diff(stats[ENGINE_INTERP], stats[engine]),
        )
