"""Instruction representation for the repro RISC ISA.

A static :class:`Instruction` is an immutable record: opcode, operands,
and (once a :class:`~repro.isa.program.Program` has laid the code out) a
program counter.  Dataflow queries (``sources`` / ``dest``) are the
interface the slicer and both simulators share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple, Union

from repro.isa.opcodes import OPINFO, Format, Opcode, OpInfo, opinfo
from repro.isa.registers import register_name

#: A branch/jump target: a label before linking, a PC after.
Target = Union[str, int]


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Attributes:
        op: the opcode.
        rd: destination register index, or ``None``.
        rs1: first source register (base register for loads/stores).
        rs2: second source register (stored value for stores).
        imm: immediate operand (memory displacement for loads/stores).
        target: control-flow target (label name or resolved PC).
        pc: program counter, assigned by :class:`Program`; -1 if unplaced.

    The opcode-derived facts (the ``is_load`` ... ``is_halt`` flags and
    the answers of ``sources()`` / ``dest()``) are resolved once, at
    construction and on unpickling, and stored on the instance: the
    p-thread dataflow scan and optimizer query them millions of times.
    They are not pickled; the pickled state is exactly the fields.
    """

    op: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[Target] = None
    pc: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        _resolve_facts(self)

    def __getstate__(self) -> dict:
        state = self.__dict__
        return {name: state[name] for name in _FIELDS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        _resolve_facts(self)

    @property
    def info(self) -> OpInfo:
        return opinfo(self.op)

    def sources(self) -> Tuple[int, ...]:
        """Register indices this instruction reads (in operand order)."""
        return self._sources

    def dest(self) -> Optional[int]:
        """Register index this instruction writes, or ``None``."""
        return self._dest

    def with_pc(self, pc: int) -> "Instruction":
        """Return a copy of this instruction placed at ``pc``."""
        return replace(self, pc=pc)

    def with_target(self, target: Target) -> "Instruction":
        """Return a copy with the control-flow target replaced."""
        return replace(self, target=target)

    def renamed(
        self,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
    ) -> "Instruction":
        """Return a copy with some register operands substituted.

        Used by the p-thread merger when it must duplicate a shared
        suffix under fresh register names.  ``None`` keeps the original
        operand.
        """
        return replace(
            self,
            rd=self.rd if rd is None else rd,
            rs1=self.rs1 if rs1 is None else rs1,
            rs2=self.rs2 if rs2 is None else rs2,
        )

    def __str__(self) -> str:
        return format_instruction(self)


#: The dataclass fields of :class:`Instruction`, i.e. its pickled state.
_FIELDS = tuple(f.name for f in fields(Instruction))

#: The boolean opcode facts stored on every instruction.
_FLAGS = ("is_load", "is_store", "is_mem", "is_branch", "is_jump", "is_control")

#: How many of (rs1, rs2) ``sources()`` reads, per format.
_NUM_SOURCES = {
    Format.R: 2,
    Format.BRANCH: 2,
    Format.STORE: 2,
    Format.I: 1,
    Format.LOAD: 1,
    Format.JR: 1,
}

#: Per opcode: its flags, its number of sources, and whether it writes rd.
_OPCODE_FACTS = {
    op: (
        dict({name: getattr(info, name) for name in _FLAGS}, is_halt=op is Opcode.HALT),
        _NUM_SOURCES.get(info.fmt, 0),
        info.writes_register,
    )
    for op, info in OPINFO.items()
}


def _resolve_facts(inst: Instruction) -> None:
    """Store ``inst``'s opcode-derived facts on the instance."""
    flags, num_sources, writes_register = _OPCODE_FACTS[inst.op]
    state = inst.__dict__
    state.update(flags)
    state["_sources"] = (inst.rs1, inst.rs2)[:num_sources]
    state["_dest"] = inst.rd if writes_register else None


def format_instruction(inst: Instruction, *, abi: bool = False) -> str:
    """Render ``inst`` in assembly syntax."""

    def reg(idx: Optional[int]) -> str:
        return "?" if idx is None else register_name(idx, abi=abi)

    fmt = inst.info.fmt
    mnem = inst.op.value
    if fmt is Format.R:
        return f"{mnem} {reg(inst.rd)}, {reg(inst.rs1)}, {reg(inst.rs2)}"
    if fmt is Format.I:
        # mov and lui have dedicated two-operand assembly forms.
        if inst.op is Opcode.MOV:
            return f"{mnem} {reg(inst.rd)}, {reg(inst.rs1)}"
        if inst.op is Opcode.LUI:
            return f"{mnem} {reg(inst.rd)}, {inst.imm}"
        return f"{mnem} {reg(inst.rd)}, {reg(inst.rs1)}, {inst.imm}"
    if fmt is Format.LOAD:
        return f"{mnem} {reg(inst.rd)}, {inst.imm}({reg(inst.rs1)})"
    if fmt is Format.STORE:
        return f"{mnem} {reg(inst.rs2)}, {inst.imm}({reg(inst.rs1)})"
    if fmt is Format.BRANCH:
        return f"{mnem} {reg(inst.rs1)}, {reg(inst.rs2)}, {inst.target}"
    if fmt is Format.JUMP:
        return f"{mnem} {inst.target}"
    if fmt is Format.JAL:
        return f"{mnem} {reg(inst.rd)}, {inst.target}"
    if fmt is Format.JR:
        return f"{mnem} {reg(inst.rs1)}"
    return mnem
