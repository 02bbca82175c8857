"""Property tests: the list-backed slicer and the flow-threaded optimizer
decide exactly what their straightforward forms decide.

The references here are deliberately naive and live only in this file:

* a slicer that reads the trace's numpy arrays and keeps its frontier as
  a plain list, taking ``max()`` and ``list.remove()`` per step;
* a dataflow scan with an explicit ``sorted(set())`` per position;
* an optimizer fixpoint that re-analyses the body before every pass
  step, with store-load pair elimination tracking the last definition
  at every position.

Traces come from the fuzz generator's workloads, bodies from both
hypothesis and those workloads' slice trees.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import run_program
from repro.fuzz.generator import SHAPES, generate
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import BodyDataflow, PThreadBody, analyze_dataflow
from repro.pthreads.optimizer import (
    OptimizationReport,
    _target_positions,
    eliminate_dead_code,
    fold_constants,
    optimize_body,
)
from repro.slicing.slice_tree import SliceTree, build_slice_trees
from repro.slicing.slicer import DynamicSlice, Slicer
from tests.property.test_optimizer_props import body_instructions

# -- references -----------------------------------------------------------


def reference_slice(trace, root: int, scope: int, max_length: int) -> DynamicSlice:
    dep1, dep2, memdep = trace.dep1, trace.dep2, trace.memdep
    horizon = root - scope
    members = [root]
    member_set = {root}
    frontier: List[int] = []

    def expand(idx: int) -> None:
        for producer in (int(dep1[idx]), int(dep2[idx]), int(memdep[idx])):
            if producer >= 0 and producer > horizon and producer not in member_set:
                member_set.add(producer)
                frontier.append(producer)

    expand(root)
    while frontier and len(members) <= max_length:
        nxt = max(frontier)
        frontier.remove(nxt)
        members.append(nxt)
        expand(nxt)
    position = {idx: pos for pos, idx in enumerate(members)}
    deps = []
    for idx in members:
        found = [
            position[p]
            for p in (int(dep1[idx]), int(dep2[idx]), int(memdep[idx]))
            if p in position and p != idx
        ]
        deps.append(tuple(sorted(set(found))))
    return DynamicSlice(root=root, indices=tuple(members), dep_positions=tuple(deps))


def reference_dataflow(instructions) -> BodyDataflow:
    last_def: Dict[int, int] = {}
    live_ins: List[int] = []
    reg_deps, mem_deps, defs = [], [], []
    stores: Dict[Tuple, int] = {}
    for position, inst in enumerate(instructions):
        deps = []
        for src in inst.sources():
            if src == 0:
                continue
            if src in last_def:
                deps.append(last_def[src])
            elif src not in live_ins:
                live_ins.append(src)
        reg_deps.append(tuple(sorted(set(deps))))
        mem_dep = None
        if inst.is_load or inst.is_store:
            base = inst.rs1
            key = (("def", last_def[base]) if base in last_def else ("livein", base), inst.imm)
            if inst.is_load:
                mem_dep = stores.get(key)
            else:
                stores[key] = position
        mem_deps.append(mem_dep)
        dest = inst.dest()
        if dest is not None and dest != 0:
            last_def[dest] = position
            defs.append(dest)
        else:
            defs.append(None)
    return BodyDataflow(tuple(reg_deps), tuple(mem_deps), tuple(live_ins), tuple(defs))


def reference_moves(instructions):
    copies: Dict[int, int] = {}
    rewritten = 0
    out = []
    for inst in instructions:
        changed = {}
        for name in ("rs1", "rs2"):
            src = getattr(inst, name)
            if src is not None and src in copies:
                changed[name] = copies[src]
        if changed:
            inst = inst.renamed(rs1=changed.get("rs1"), rs2=changed.get("rs2"))
            rewritten += 1
        dest = inst.dest()
        if dest is not None and dest != 0:
            copies.pop(dest, None)
            for key in [k for k, v in copies.items() if v == dest]:
                copies.pop(key)
            if inst.op is Opcode.MOV and inst.rs1 not in (None, dest):
                copies[dest] = inst.rs1
        out.append(inst)
    return out, rewritten


def reference_store_load_pairs(instructions):
    dataflow = reference_dataflow(instructions)
    last_def_at: List[Dict[int, int]] = []
    last_def: Dict[int, int] = {}
    for position, inst in enumerate(instructions):
        last_def_at.append(dict(last_def))
        dest = inst.dest()
        if dest is not None and dest != 0:
            last_def[dest] = position
    eliminated = 0
    out = list(instructions)
    for position, inst in enumerate(instructions):
        store_pos = dataflow.mem_deps[position]
        if store_pos is None or not inst.is_load:
            continue
        value_reg = instructions[store_pos].rs2
        if value_reg is None:
            continue
        if last_def_at[store_pos].get(value_reg) != last_def_at[position].get(value_reg):
            continue
        out[position] = Instruction(Opcode.MOV, rd=inst.rd, rs1=value_reg, pc=inst.pc)
        eliminated += 1
    return out, eliminated


def reference_optimize(body: PThreadBody, targets=None, assume_no_alias=True):
    instructions = list(body.instructions)
    target_list = _target_positions(len(instructions), targets)
    moves = pairs = folds = dead = 0
    for _ in range(64):
        before = list(instructions)
        instructions, n = reference_moves(instructions)
        moves += n
        instructions, n = reference_store_load_pairs(instructions)
        pairs += n
        protected: Set[int] = set(target_list)
        instructions, n, deleted = fold_constants(
            instructions, protected, dataflow=reference_dataflow(instructions)
        )
        folds += n
        if deleted is not None:
            target_list = [t - 1 if t > deleted else t for t in target_list]
        instructions, target_list, n = eliminate_dead_code(
            instructions,
            target_list,
            assume_no_alias=assume_no_alias,
            dataflow=reference_dataflow(instructions),
        )
        dead += n
        if instructions == before:
            break
    report = OptimizationReport(
        original_size=body.size,
        optimized_size=len(instructions),
        moves_eliminated=moves,
        store_load_pairs_eliminated=pairs,
        constants_folded=folds,
        dead_instructions_removed=dead,
    )
    return instructions, tuple(target_list), report


# -- fuzz inputs ----------------------------------------------------------

FUZZ_SEEDS = range(12)


@lru_cache(maxsize=None)
def fuzz_workload(seed: int, shape: str):
    workload = generate(seed, shape)
    return workload, run_program(workload.program, workload.hierarchy).trace


@lru_cache(maxsize=None)
def fuzz_bodies(seed: int, shape: str) -> Tuple[Tuple[Instruction, ...], ...]:
    """Every slice-tree path body of a fuzz workload (nodes below root)."""
    workload, trace = fuzz_workload(seed, shape)
    bodies = []
    for tree in build_slice_trees(trace, scope=256, max_length=24).values():
        for node in tree.nodes():
            if node.depth:
                path = node.path_to_root()[1:]
                bodies.append(tuple(workload.program[n.pc] for n in path))
    return tuple(bodies)


fuzz_cases = st.tuples(st.sampled_from(FUZZ_SEEDS), st.sampled_from(SHAPES))

_DENSE_REGS = st.integers(1, 4)


@st.composite
def dense_bodies(draw) -> List[Instruction]:
    """Bodies over four registers and two offsets, so store-load pairs,
    redefinitions between them and foldable ``addi`` chains are common."""
    instructions = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["sw", "lw", "addi", "mov", "add"]))
        rd, rs1, rs2 = draw(_DENSE_REGS), draw(_DENSE_REGS), draw(_DENSE_REGS)
        offset = draw(st.sampled_from([0, 4]))
        if kind == "sw":
            instructions.append(Instruction(Opcode.SW, rs1=rs1, rs2=rs2, imm=offset))
        elif kind == "lw":
            instructions.append(Instruction(Opcode.LW, rd=rd, rs1=rs1, imm=offset))
        elif kind == "addi":
            instructions.append(Instruction(Opcode.ADDI, rd=rd, rs1=rs1, imm=offset + 1))
        elif kind == "mov":
            instructions.append(Instruction(Opcode.MOV, rd=rd, rs1=rs1))
        else:
            instructions.append(Instruction(Opcode.ADD, rd=rd, rs1=rs1, rs2=rs2))
    instructions.append(Instruction(Opcode.LW, rd=1, rs1=draw(_DENSE_REGS), imm=0))
    return instructions


def instruction_record(instructions) -> List[tuple]:
    return [
        (i.op, i.rd, i.rs1, i.rs2, i.imm, i.target, i.pc) for i in instructions
    ]


def assert_same_optimization(body: PThreadBody, targets=None, assume_no_alias=True):
    result = optimize_body(body, targets=targets, assume_no_alias=assume_no_alias)
    instructions, ref_targets, report = reference_optimize(
        body, targets=targets, assume_no_alias=assume_no_alias
    )
    assert instruction_record(result.body.instructions) == instruction_record(instructions)
    assert result.targets == ref_targets
    assert result.report == report
    assert result.body.dataflow == reference_dataflow(instructions)


# -- properties -------------------------------------------------------------


#: A region of a trace as fractions of its length; (0, 1) is the whole
#: trace, the default of ``Slicer`` and ``build_slice_trees``.
regions = st.one_of(
    st.just((0.0, 1.0)),
    st.tuples(st.floats(0, 1), st.floats(0, 1)).map(sorted).map(tuple),
)


def region_bounds(trace, region) -> Tuple[int, int]:
    return int(region[0] * len(trace)), int(region[1] * len(trace))


@given(
    case=fuzz_cases,
    scope=st.integers(1, 1500),
    max_length=st.integers(1, 64),
    region=regions,
    picks=st.lists(st.integers(0, 1 << 30), min_size=1, max_size=8),
)
@settings(max_examples=80)
def test_slicer_matches_naive_frontier(case, scope, max_length, region, picks):
    _, trace = fuzz_workload(*case)
    start, end = region_bounds(trace, region)
    slicer = Slicer(trace, scope=scope, max_length=max_length, start=start, end=end)
    candidates = [p % len(trace) for p in picks]
    misses = trace.miss_indices(3).tolist()
    candidates += [misses[p % len(misses)] for p in picks] if misses else []
    for root in candidates:
        if start <= root < end:
            assert slicer.slice_at(root) == reference_slice(trace, root, scope, max_length)
        else:
            with pytest.raises(IndexError):
                slicer.slice_at(root)


@given(
    case=fuzz_cases,
    scope=st.integers(8, 1024),
    max_length=st.integers(1, 48),
    region=regions,
)
@settings(max_examples=40)
def test_slice_trees_match_reference_slices(case, scope, max_length, region):
    _, trace = fuzz_workload(*case)
    start, end = region_bounds(trace, region)
    built = build_slice_trees(
        trace, scope=scope, max_length=max_length, start=start, end=end
    )
    for load_pc, tree in built.items():
        reference = SliceTree(load_pc)
        for root in trace.miss_indices(3).tolist():
            if start <= root < end and int(trace.pc[root]) == load_pc:
                reference.insert(reference_slice(trace, root, scope, max_length), trace)
        assert tree.slices_inserted == reference.slices_inserted
        assert [
            (n.pc, n.depth, n.visits, n.dist_sum, n.dep_depths, n.truncated)
            for n in tree.nodes()
        ] == [
            (n.pc, n.depth, n.visits, n.dist_sum, n.dep_depths, n.truncated)
            for n in reference.nodes()
        ]


@given(
    instructions=st.one_of(body_instructions(), dense_bodies()),
    assume_no_alias=st.booleans(),
)
def test_dataflow_and_optimizer_match_reference_on_random_bodies(
    instructions, assume_no_alias
):
    assert analyze_dataflow(instructions) == reference_dataflow(instructions)
    assert_same_optimization(PThreadBody(instructions), assume_no_alias=assume_no_alias)


@given(case=fuzz_cases, picks=st.lists(st.integers(0, 1 << 30), min_size=1, max_size=6))
@settings(max_examples=60)
def test_dataflow_and_optimizer_match_reference_on_slice_bodies(case, picks):
    bodies = fuzz_bodies(*case)
    if not bodies:
        return
    for pick in picks:
        instructions = bodies[pick % len(bodies)]
        assert analyze_dataflow(instructions) == reference_dataflow(instructions)
        body = PThreadBody(instructions)
        assert_same_optimization(body)
        # Several targets: the merger's form.
        targets = sorted({len(instructions) - 1, pick % len(instructions)})
        assert_same_optimization(body, targets=targets, assume_no_alias=False)
