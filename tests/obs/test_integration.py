"""End-to-end observability: real pipeline runs populate the registry,
sweep workers ship spans/metrics back, and the exported snapshot passes
the catalog schema check."""

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.harness.parallel import SweepExecutor
from repro.model.params import SelectionConstraints
from repro.obs import (
    check_snapshot,
    load_snapshot,
    reset_registry,
    snapshot_document,
    write_snapshot,
)
from repro.workloads.suite import build

SMALL_PHARMACY = dict(
    n_xact=500, n_drugs=8192, hot_drugs=512, hot_fraction=0.45, seed=11
)

PIPELINE_STAGES = ("trace", "baseline", "selection", "timing")


@pytest.fixture
def small_inputs(monkeypatch):
    """Shrink the pharmacy build everywhere — including fork workers."""
    from repro.workloads import pharmacy

    monkeypatch.setitem(pharmacy.INPUTS, "train", dict(SMALL_PHARMACY))


def seeded_runner(artifacts=None) -> ExperimentRunner:
    runner = ExperimentRunner(artifacts=artifacts)
    small = build("pharmacy", "train", **SMALL_PHARMACY)
    runner._workloads[("pharmacy", "train", small.hierarchy)] = small
    return runner


def test_experiment_run_emits_nested_spans(fresh_obs):
    tracer, _ = fresh_obs
    seeded_runner().run(ExperimentConfig(workload="pharmacy"))
    (experiment,) = tracer.root.children
    assert experiment.name == "experiment"
    assert experiment.meta["workload"] == "pharmacy"
    names = [child.name for child in experiment.children]
    for stage in PIPELINE_STAGES:
        assert stage in names
    assert experiment.find("slice+select") is not None
    assert all(span.duration >= 0 for span in experiment.walk())


def test_selection_span_splits_into_slicing_and_tree_selection(fresh_obs):
    """``slice+select`` has exactly one child span per selection layer,
    never one per slice or per tree, and they account for its time."""
    tracer, _ = fresh_obs
    result = seeded_runner().run(ExperimentConfig(workload="pharmacy"))
    select = tracer.root.find("slice+select")
    assert [child.name for child in select.children] == [
        "slice_trees",
        "select_trees",
    ]
    slice_trees, select_trees = select.children
    assert not slice_trees.children and not select_trees.children
    trees = len(result.selection.tree_selections)
    assert slice_trees.meta == {"trees": trees}
    assert select_trees.meta == {"trees": trees}
    covered = slice_trees.duration + select_trees.duration
    assert covered <= select.duration
    assert covered >= 0.5 * select.duration


def test_experiment_run_registers_split_pthread_counters(fresh_obs):
    _, registry = fresh_obs
    result = seeded_runner().run(ExperimentConfig(workload="pharmacy"))
    launches = registry.counter("timing.pthread.launches").value
    drops = registry.counter("timing.pthread.drops").value
    attempts = registry.counter("timing.pthread.attempts").value
    assert attempts == launches + drops
    assert launches == result.preexec.pthread_launches
    assert drops == result.preexec.pthread_drops


def test_parallel_sweep_merges_worker_spans_and_metrics(
    small_inputs, tmp_path, fresh_obs
):
    tracer, registry = fresh_obs
    executor = SweepExecutor(jobs=2, artifacts=ArtifactCache(tmp_path))
    configs = [
        ExperimentConfig(workload="pharmacy"),
        ExperimentConfig(
            workload="pharmacy",
            constraints=SelectionConstraints(max_pthread_length=16),
        ),
    ]
    results = executor.run(configs)

    (sweep,) = tracer.root.children
    assert sweep.name == "sweep"
    assert sweep.meta == {"cells": 2, "jobs": 2}
    experiments = [c for c in sweep.children if c.name == "experiment"]
    assert len(experiments) == 2
    # attach() tagged each worker subtree with its cell index, in order.
    assert [e.meta["cell"] for e in experiments] == [0, 1]
    for experiment in experiments:
        for stage in PIPELINE_STAGES:
            assert experiment.find(stage) is not None

    # Worker metric snapshots accumulated into the coordinator registry.
    launches = registry.counter("timing.pthread.launches").value
    drops = registry.counter("timing.pthread.drops").value
    assert launches == sum(r.preexec.pthread_launches for r in results)
    assert drops == sum(r.preexec.pthread_drops for r in results)
    assert registry.counter("timing.runs").value >= 2
    assert registry.get("memory.l2.mshr_occupancy").count > 0


def test_snapshot_of_real_run_passes_catalog_check(tmp_path, fresh_obs):
    """`repro obs check` semantics: a pipeline run produces every catalog
    metric with the pinned type, the harness counters included."""
    _, registry = fresh_obs
    runner = seeded_runner()
    runner.run(ExperimentConfig(workload="pharmacy"))
    path = tmp_path / "metrics_snapshot.json"
    write_snapshot(path, registry)
    assert check_snapshot(load_snapshot(path)) == []


def test_warm_store_snapshot_passes_catalog_check(tmp_path, fresh_obs):
    """A run whose trace comes from the store runs no functional
    simulation, yet its snapshot still carries ``functional.*``."""
    store = ArtifactCache(tmp_path)
    config = ExperimentConfig(workload="pharmacy")
    seeded_runner(store).run(config)
    registry = reset_registry()
    seeded_runner(store).run(config)
    doc = snapshot_document(registry)
    assert doc["metrics"]["harness.stage.trace.disk_hits"]["value"] == 1
    assert doc["metrics"]["functional.runs"]["value"] == 0
    assert check_snapshot(doc) == []


def test_warm_store_sweep_snapshot_passes_catalog_check(
    small_inputs, tmp_path, fresh_obs
):
    """The same in sweep worker processes, whose per-cell registries the
    coordinator merges."""
    configs = [
        ExperimentConfig(workload="pharmacy"),
        ExperimentConfig(workload="pharmacy", validate=True),
    ]
    SweepExecutor(jobs=1, artifacts=ArtifactCache(tmp_path)).run(configs)
    registry = reset_registry()
    SweepExecutor(jobs=2, artifacts=ArtifactCache(tmp_path)).run(configs)
    doc = snapshot_document(registry)
    assert doc["metrics"]["harness.stage.trace.disk_hits"]["value"] >= 1
    assert doc["metrics"]["functional.runs"]["value"] == 0
    assert check_snapshot(doc) == []
