"""Generated p-thread bodies against the interpreted body loop.

The compiled and tiered engines run each static p-thread body as one
generated straight-line function; the interp engine keeps the
interpreted body loop.  Here both launch the same random bodies from
the same main-thread state, against a recording stand-in for the
memory hierarchy, and must make the same loads and accesses at the same
cycles and post the same branch hints.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.compiler import ENGINE_COMPILED, ENGINE_INTERP
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, Opcode, opinfo
from repro.isa.registers import NUM_REGS
from repro.memory.main_memory import MainMemory, MemoryAlignmentError
from repro.pthreads.body import PThreadBody
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.timing.config import LATENCY_ONLY, OVERHEAD_EXECUTE, PRE_EXECUTION
from repro.timing.core import TimingSimulator, _TimingState
from repro.timing.stats import SimStats

PROGRAM = assemble("halt")

ALU = [op for op in Opcode if opinfo(op).fmt in (Format.R, Format.I)]
BRANCHES = [op for op in Opcode if opinfo(op).fmt is Format.BRANCH]
#: Architectural registers plus two virtual ones, which read as zero
#: until the body defines them.
REGISTERS = [0, 1, 2, 3, 4, NUM_REGS, NUM_REGS + 1]
#: Registers holding word-aligned addresses at launch.
POINTERS = [5, 6]


def random_body(rng: random.Random) -> PThreadBody:
    instructions = []
    for _ in range(rng.randint(1, 20)):
        kind = rng.random()
        if kind < 0.15:
            # Move a pointer, so ALU latencies reach load issue cycles;
            # an odd bump makes the next load through it misaligned.
            pointer = rng.choice(POINTERS)
            op = rng.choice([Opcode.ADDI, Opcode.MUL, Opcode.SLLI])
            instructions.append(
                Instruction(
                    op,
                    rd=pointer,
                    rs1=pointer,
                    rs2=rng.choice(REGISTERS) if op is Opcode.MUL else None,
                    imm=rng.choice([4, 8, 2]) if op is Opcode.ADDI else 1,
                )
            )
        elif kind < 0.5:
            op = rng.choice(ALU)
            instructions.append(
                Instruction(
                    op,
                    rd=rng.choice(REGISTERS),
                    rs1=rng.choice(REGISTERS + POINTERS),
                    rs2=(
                        rng.choice(REGISTERS + POINTERS)
                        if opinfo(op).fmt is Format.R
                        else None
                    ),
                    imm=rng.randint(-64, 64),
                )
            )
        elif kind < 0.8:
            instructions.append(
                Instruction(
                    Opcode.LW,
                    rd=rng.choice(REGISTERS + POINTERS),
                    rs1=rng.choice(POINTERS),
                    imm=4 * rng.randint(0, 8),
                )
            )
        else:
            instructions.append(
                Instruction(
                    Opcode.SW,
                    rs1=rng.choice(POINTERS),
                    rs2=rng.choice(REGISTERS),
                    imm=4 * rng.randint(0, 8),
                )
            )
    if not any(inst.op is Opcode.LW for inst in instructions):
        instructions.append(
            Instruction(Opcode.LW, rd=rng.choice(REGISTERS), rs1=POINTERS[0])
        )
    if rng.random() < 0.3:
        instructions.append(
            Instruction(
                rng.choice(BRANCHES),
                rs1=rng.choice(REGISTERS),
                rs2=rng.choice(REGISTERS),
                target=0,
                pc=40,
            )
        )
    return PThreadBody(instructions)


class RecordingHierarchy:
    """Latencies from a hash of the address; every access is logged."""

    def __init__(self) -> None:
        self.log = []

    def pt_access_fast(self, addr, now):
        self.log.append(("pt", addr, now))
        return 2, now + 3 + addr % 29

    def phantom_access_fast(self, addr, now):
        self.log.append(("phantom", addr, now))
        return 3, now + 70


def launch_all(engine, pthread, mode, rng_seed):
    """Launch ``pthread`` at a series of cycles; returns what it did."""
    sim = TimingSimulator(PROGRAM, None, pthreads=[pthread], engine=engine)
    rng = random.Random(rng_seed)
    st = _TimingState()
    st.mode = mode
    st.stats = SimStats()
    st.contexts = [0] * 3
    st.stolen = {}
    st.regs = [rng.randint(-1000, 1000) for _ in range(NUM_REGS)]
    st.regs[0] = 0
    for reg in POINTERS:
        st.regs[reg] = 4 * rng.randint(0, 64)
    st.reg_ready = [0] + [rng.randint(0, 40) for _ in range(NUM_REGS - 1)]
    st.memory = MainMemory()
    for addr in range(0, 400, 4):
        st.memory.store(addr, 4 * rng.randint(0, 64))
    st.mem_load = st.memory.load
    st.hierarchy = RecordingHierarchy()
    st.branch_counts = {40: 3}
    st.branch_hints = {}
    launch = sim._bind_launch(st)
    try:
        for t in range(0, 400, 37):
            launch([pthread], t)
    except MemoryAlignmentError as error:  # a loaded pointer was odd
        st.hierarchy.log.append(("raised", str(error)))
    return st.hierarchy.log, st.branch_hints, st.stats.to_dict()


@pytest.mark.parametrize("mode", [PRE_EXECUTION, OVERHEAD_EXECUTE, LATENCY_ONLY])
@pytest.mark.parametrize("seed", range(100))
def test_generated_body_matches_interpreted_loop(seed, mode):
    rng = random.Random(seed)
    body = random_body(rng)
    pthread = StaticPThread(
        trigger_pc=10,
        body=body,
        target_load_pcs=(),
        prediction=PThreadPrediction(
            dc_trig=1, size=body.size, misses_covered=0,
            misses_fully_covered=0, lt_agg=0.0, oh_agg=0.0,
        ),
        instances_ahead=rng.randint(0, 3),
    )
    interpreted = launch_all(ENGINE_INTERP, pthread, mode, seed)
    generated = launch_all(ENGINE_COMPILED, pthread, mode, seed)
    assert interpreted == generated
