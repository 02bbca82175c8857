"""Byte-identity pins for whole-program selection.

One golden digest per bundled workload of everything
:func:`select_pthreads` decides: trigger PCs, executed and original
bodies (instruction fields and PCs), targets, per-p-thread and
whole-program predictions, and per-tree slice statistics.  A change to
the slicer, slice tree, optimizer or selector that alters any selection
by one byte changes a digest here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine import run_program
from repro.model.params import ModelParams, SelectionConstraints
from repro.selection.program_selector import ProgramSelection, select_pthreads
from repro.workloads.suite import SUITE, build

WORKLOADS = SUITE + ["pharmacy"]

#: sha256 of :func:`selection_record`, per workload (train input).
GOLDEN = {
    "bzip2": "39db85800b20366ffad773b2a52fa6be55ea6f71f3d2a7d4c5b8de7793b850c7",
    "crafty": "7f5c2b16e115027fdd83c9a00fb401bdeb209b8886f8211fb8bffce97bfed27a",
    "gap": "afb67b82a153f00f1b6f7d1655b9fb0727a29c4763fa038bcf2906492c977da6",
    "gcc": "bdcd9be79f1a43a0b0c6219ff47ec2a04bc9622c504063a5d1da136b249d8112",
    "mcf": "d54ce70475921fa3ec5c5c9767890f3c30fe327f22b6f72c16f1458e52e4fafd",
    "parser": "6330d6d4f08a7f4c73a0dad3f21b6d99e76e26cff7d361715955f6e442fdf738",
    "twolf": "65c1f397ce8677e0d72efe62b37a589449a66869a9cb2f3941d5c204bc81773a",
    "vortex": "898ecc91485fa0eca1aae73aed8bc3ddcc87c0e18ccbf7ec4ed43b313e524f4d",
    "vpr.p": "4fb99c86ea87bab604918e3277493f34753a5e5ba809d645731580e5a705875f",
    "vpr.r": "86cc489477629959a4c08a9f44ae774edd81f24b73e3b5b8a8ddb27b440ebbb3",
    "pharmacy": "f68ed91fa628dd6418c83315378d5df5553817b9dd9ad91af54d0438175d4db6",
}


def _insts(body):
    return [
        [inst.op.value, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.target, inst.pc]
        for inst in body.instructions
    ]


def _floats(obj, names):
    return [repr(float(getattr(obj, name))) for name in names]


def selection_record(selection: ProgramSelection) -> dict:
    """Every selection decision, as plain JSON-able values."""
    pthreads = []
    for pt in selection.pthreads:
        pred = pt.prediction
        pthreads.append(
            {
                "trigger": pt.trigger_pc,
                "loads": list(pt.target_load_pcs),
                "body": _insts(pt.body),
                "original": _insts(pt.original_body),
                "original_targets": list(pt.original_targets),
                "instances_ahead": pt.instances_ahead,
                "prediction": [
                    pred.dc_trig,
                    pred.size,
                    pred.misses_covered,
                    pred.misses_fully_covered,
                ]
                + _floats(pred, ("lt_agg", "oh_agg")),
                "components": [
                    [c.trigger_pc, c.load_pc, c.depth, c.size, c.dc_trig, c.dc_pt_cm]
                    + _floats(c, ("scdh_mt", "scdh_pt", "lt", "oh"))
                    for c in pt.components
                ],
            }
        )
    trees = []
    for load_pc in sorted(selection.tree_selections):
        tree_selection = selection.tree_selections[load_pc]
        tree = tree_selection.tree
        trees.append(
            [
                load_pc,
                tree.slices_inserted,
                tree.num_nodes(),
                tree_selection.candidates_considered,
                tree_selection.iterations,
                [[c.node.pc, c.node.depth] for c in tree_selection.selected],
            ]
        )
    pred = selection.prediction
    return {
        "pthreads": pthreads,
        "trees": trees,
        "prediction": [
            pred.launches,
            pred.injected_instructions,
            pred.misses_covered,
            pred.misses_fully_covered,
            pred.sample_instructions,
            pred.sample_l2_misses,
        ]
        + _floats(pred, ("lt_agg", "oh_agg")),
    }


def selection_digest(selection: ProgramSelection) -> str:
    text = json.dumps(selection_record(selection), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def workload_selection(name: str) -> ProgramSelection:
    workload = build(name, "train")
    trace = run_program(workload.program, workload.hierarchy).trace
    params = ModelParams(
        bw_seq=8,
        unassisted_ipc=0.8,
        mem_latency=workload.hierarchy.mem_latency,
        load_latency=workload.hierarchy.l1.hit_latency,
    )
    return select_pthreads(workload.program, trace, params, SelectionConstraints())


@pytest.mark.parametrize("name", WORKLOADS)
def test_selection_is_byte_identical(name):
    assert selection_digest(workload_selection(name)) == GOLDEN[name]


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python -m tests.selection.test_selection_golden
    for name in WORKLOADS:
        print(f'    "{name}": "{selection_digest(workload_selection(name))}",')
