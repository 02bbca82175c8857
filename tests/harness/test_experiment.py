"""Tests for the end-to-end experiment pipeline (on the small pharmacy).

These are integration-grade but kept fast by overriding workload input
parameters through the runner's workload cache.
"""

import sys
import threading

import pytest

from repro.engine.functional import run_program
from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.model.params import SelectionConstraints
from repro.timing.config import MachineConfig
from repro.workloads.suite import Workload, build


@pytest.fixture(scope="module")
def runner():
    """A runner whose pharmacy workload is pre-seeded with a small build."""
    runner = ExperimentRunner()
    for input_name in ("train", "test"):
        small = build(
            "pharmacy",
            input_name,
            n_xact=700 if input_name == "train" else 300,
            n_drugs=16384,
            hot_drugs=1024,
        )
        # The runner keys workloads on the *resolved* hierarchy, so one
        # seed covers both the ``hierarchy=None`` and explicit-default
        # spellings.
        runner._workloads[("pharmacy", input_name, small.hierarchy)] = small
    return runner


class TestPipeline:
    def test_basic_run(self, runner):
        result = runner.run(ExperimentConfig(workload="pharmacy"))
        assert result.baseline.ipc > 0
        assert result.preexec.instructions == result.baseline.instructions
        assert result.selection.pthreads
        assert result.preexec.pthread_launches > 0

    def test_speedup_positive_for_pharmacy(self, runner):
        result = runner.run(ExperimentConfig(workload="pharmacy"))
        assert result.speedup > 0.0
        assert result.coverage > 0.5

    def test_validation_modes_present(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", validate=True)
        )
        assert set(result.validation) == {
            "overhead_execute",
            "overhead_sequence",
            "latency_only",
            "perfect_l2",
        }
        assert result.validation["perfect_l2"].ipc >= result.baseline.ipc

    def test_summary_row_keys(self, runner):
        row = runner.run(ExperimentConfig(workload="pharmacy")).summary_row()
        for key in (
            "base_ipc",
            "preexec_ipc",
            "speedup_pct",
            "coverage_pct",
            "full_coverage_pct",
            "overhead_pct",
            "pthread_len",
            "launches",
        ):
            assert key in row

    def test_caching_reuses_traces(self, runner):
        first = runner.run(ExperimentConfig(workload="pharmacy"))
        second = runner.run(
            ExperimentConfig(
                workload="pharmacy",
                constraints=SelectionConstraints(max_pthread_length=16),
            )
        )
        assert second.functional is first.functional


class TestStageCaching:
    def test_workload_key_resolves_default_hierarchy(self, runner):
        from repro.workloads.common import SUITE_HIERARCHY

        implicit = runner.workload("pharmacy", "train", None)
        explicit = runner.workload("pharmacy", "train", SUITE_HIERARCHY)
        assert implicit is explicit

    def test_one_trace_computation_across_two_cell_sweep(self, stage_counts):
        runner = fresh_small_runner()
        runner.run(ExperimentConfig(workload="pharmacy"))
        runner.run(
            ExperimentConfig(
                workload="pharmacy",
                constraints=SelectionConstraints(max_pthread_length=16),
            )
        )
        # Both cells share (workload, input, hierarchy): the trace and
        # baseline are computed once and hit in memory the second time.
        stages = stage_counts()
        assert stages["trace"]["computed"] == 1
        assert stages["trace"]["hits"] == 1
        assert stages["baseline"]["computed"] == 1
        assert stages["baseline"]["hits"] == 1
        # The constraints differ, so selection legitimately reruns.
        assert stages["selection"]["computed"] == 2

    def test_perfect_l2_cached_like_baseline(self, stage_counts):
        runner = fresh_small_runner()
        runner.run(ExperimentConfig(workload="pharmacy", validate=True))
        runner.run(ExperimentConfig(workload="pharmacy", validate=True))
        stages = stage_counts()
        assert stages["perfect_l2"]["computed"] == 1
        assert stages["perfect_l2"]["hits"] == 1

    def test_concurrent_callers_of_one_stage_compute_it_once(
        self, stage_counts, monkeypatch
    ):
        runner = fresh_small_runner()
        workload = runner.workload("pharmacy", "train")
        traced = []

        def counting_run_program(*args, **kwargs):
            traced.append(threading.current_thread().name)
            return run_program(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_program", counting_run_program)
        callers = 4
        barrier = threading.Barrier(callers, timeout=30)
        results = []

        def call() -> None:
            barrier.wait()
            results.append(runner.trace(workload))

        threads = [threading.Thread(target=call) for _ in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(traced) == 1
        assert all(result is results[0] for result in results)
        stages = stage_counts()
        assert stages["trace"]["computed"] == 1
        assert stages["trace"]["hits"] == callers - 1

    def test_timings_recorded_per_stage(self, runner):
        result = runner.run(ExperimentConfig(workload="pharmacy"))
        for stage in ("trace", "baseline", "selection", "timing"):
            assert stage in result.timings
            assert result.timings[stage] >= 0.0


def fresh_small_runner() -> ExperimentRunner:
    """An unshared runner (counter tests need pristine stage caches)."""
    runner = ExperimentRunner()
    small = build(
        "pharmacy", "train", n_xact=700, n_drugs=16384, hot_drugs=1024
    )
    runner._workloads[("pharmacy", "train", small.hierarchy)] = small
    return runner


class TestConfigurationKnobs:
    def test_granularity_produces_regions(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", granularity=3000)
        )
        assert result.num_regions > 1

    def test_selection_prefix(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", selection_prefix=2500)
        )
        assert (
            result.selection.prediction.sample_instructions <= 2500
        )

    def test_selection_on_test_input(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", selection_input="test")
        )
        # Measured on train regardless of the selection profile.
        baseline = runner.run(ExperimentConfig(workload="pharmacy")).baseline
        assert result.baseline.instructions == baseline.instructions

    def test_model_latency_override_changes_pthreads(self, runner):
        short = runner.run(
            ExperimentConfig(workload="pharmacy", model_mem_latency=10)
        )
        long = runner.run(
            ExperimentConfig(workload="pharmacy", model_mem_latency=140)
        )
        if short.selection.pthreads and long.selection.pthreads:
            assert (
                long.selection.prediction.avg_pthread_length
                >= short.selection.prediction.avg_pthread_length
            )

    def test_machine_width_flows_to_model(self, runner):
        result = runner.run(
            ExperimentConfig(
                workload="pharmacy", machine=MachineConfig(bw_seq=4)
            )
        )
        assert result.selection.params.bw_seq == 4

    def test_model_width_override(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", model_bw_seq=2)
        )
        assert result.selection.params.bw_seq == 2


class TestSoftDeadline:
    def test_budget_spent_in_first_validation_run_stops_the_next(
        self, runner, monkeypatch
    ):
        """The budget is checked before every validation simulation, so
        one that runs out during the first never starts the second."""
        from repro.serve.protocol import partial_payload
        from repro.timing.config import OVERHEAD_EXECUTE

        clock = [1000.0]
        monkeypatch.setattr(experiment.time, "monotonic", lambda: clock[0])
        modes = []
        simulate = experiment.TimingSimulator.run

        def run(sim, mode, **kwargs):
            modes.append(mode.name)
            stats = simulate(sim, mode, **kwargs)
            if mode == OVERHEAD_EXECUTE:
                clock[0] += 60.0  # this run outlasts the budget
            return stats

        monkeypatch.setattr(experiment.TimingSimulator, "run", run)
        config = ExperimentConfig(workload="pharmacy", validate=True)
        with pytest.raises(experiment.ExperimentDeadlineError) as raised:
            runner.run(config, deadline=clock[0] + 30.0)
        assert modes[-2:] == ["pre-exec", "overhead-execute"]
        partial = raised.value.partial
        assert partial.next_stage == "validation"
        assert partial.stages_completed == [
            "trace", "baseline", "selection", "timing"
        ]
        payload = partial_payload(partial)
        assert payload["status"] == "budget_exceeded"
        assert payload["next_stage"] == "validation"
