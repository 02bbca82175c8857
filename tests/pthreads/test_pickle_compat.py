"""Stored selections stay loadable across the Instruction layout.

Selection artifacts are pickles whose store keys do not cover the code
that wrote them, so a store filled by an earlier build must still load.
The byte strings below were pickled (protocol 4) by a build whose
``Instruction`` kept no opcode-derived facts on the instance; loading
them must rebuild those facts, and pickling must still write exactly the
dataclass fields.
"""

from __future__ import annotations

import base64
import pickle

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import PThreadBody, analyze_dataflow
from repro.pthreads.optimizer import optimize_body

#: ``Instruction(Opcode.LW, rd=5, rs1=6, imm=8, pc=12)``.
INSTRUCTION_PICKLE = base64.b64decode(
    "gASVjQAAAAAAAACMFXJlcHJvLmlzYS5pbnN0cnVjdGlvbpSMC0luc3RydWN0aW9ulJOU"
    "KYGUfZQojAJvcJSMEXJlcHJvLmlzYS5vcGNvZGVzlIwGT3Bjb2RllJOUjAJsd5SFlFKU"
    "jAJyZJRLBYwDcnMxlEsGjANyczKUTowDaW1tlEsIjAZ0YXJnZXSUTowCcGOUSwx1Yi4="
)

#: ``PThreadBody`` of addi r6,r6,16 / sw r7,0(r6) / lw r8,0(r6) /
#: lw r9,4(r8) at pcs 3..6, with its cached dataflow.
BODY_PICKLE = base64.b64decode(
    "gASVxAEAAAAAAACME3JlcHJvLnB0aHJlYWRzLmJvZHmUjAtQVGhyZWFkQm9keZSTlCmB"
    "lH2UKIwMaW5zdHJ1Y3Rpb25zlF2UKIwVcmVwcm8uaXNhLmluc3RydWN0aW9ulIwLSW5z"
    "dHJ1Y3Rpb26Uk5QpgZR9lCiMAm9wlIwRcmVwcm8uaXNhLm9wY29kZXOUjAZPcGNvZGWU"
    "k5SMBGFkZGmUhZRSlIwCcmSUSwaMA3JzMZRLBowDcnMylE6MA2ltbZRLEIwGdGFyZ2V0"
    "lE6MAnBjlEsDdWJoCSmBlH2UKGgMaA+MAnN3lIWUUpRoE05oFEsGaBVLB2gWSwBoF05o"
    "GEsEdWJoCSmBlH2UKGgMaA+MAmx3lIWUUpRoE0sIaBRLBmgVTmgWSwBoF05oGEsFdWJo"
    "CSmBlH2UKGgMaCJoE0sJaBRLCGgVTmgWSwRoF05oGEsGdWJljAhkYXRhZmxvd5RoAIwM"
    "Qm9keURhdGFmbG93lJOUKYGUfZQojAhyZWdfZGVwc5QoKUsAhZRLAIWUSwKFlHSUjAht"
    "ZW1fZGVwc5QoTk5LAU50lIwIbGl2ZV9pbnOUSwZLB4aUjARkZWZzlChLBk5LCEsJdJR1"
    "YnViLg=="
)

BODY_INSTRUCTIONS = [
    Instruction(Opcode.ADDI, rd=6, rs1=6, imm=16, pc=3),
    Instruction(Opcode.SW, rs1=6, rs2=7, imm=0, pc=4),
    Instruction(Opcode.LW, rd=8, rs1=6, imm=0, pc=5),
    Instruction(Opcode.LW, rd=9, rs1=8, imm=4, pc=6),
]


def test_stored_instruction_answers_dataflow_queries():
    inst = pickle.loads(INSTRUCTION_PICKLE)
    assert inst == Instruction(Opcode.LW, rd=5, rs1=6, imm=8) and inst.pc == 12
    assert inst.sources() == (6,)
    assert inst.dest() == 5
    assert inst.is_load and inst.is_mem
    assert not (inst.is_store or inst.is_branch or inst.is_control or inst.is_halt)


def test_stored_body_analyses_and_optimizes():
    body = pickle.loads(BODY_PICKLE)
    assert body == PThreadBody(BODY_INSTRUCTIONS)
    assert body.dataflow == analyze_dataflow(body.instructions)
    assert body.live_ins == (6, 7)
    assert body.problem_load_positions() == [3]
    optimized = optimize_body(body)
    assert optimized.report.store_load_pairs_eliminated == 1
    # The forwarded value r7 is copy-propagated into the final load.
    (load,) = optimized.body.instructions
    assert load == Instruction(Opcode.LW, rd=9, rs1=7, imm=4) and load.pc == 6


def test_pickled_state_is_exactly_the_fields():
    inst = Instruction(Opcode.LW, rd=5, rs1=6, imm=8, pc=12)
    assert pickle.dumps(inst, protocol=4) == INSTRUCTION_PICKLE
    assert pickle.dumps(PThreadBody(BODY_INSTRUCTIONS), protocol=4) == BODY_PICKLE
