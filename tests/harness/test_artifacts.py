"""Tests for the persistent artifact cache and perf counters."""

import json
import os
import stat
import threading

import pytest

from repro.harness.artifacts import (
    ArtifactCache,
    PerfCounters,
    program_digest,
    stable_key,
)
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.memory.hierarchy import HierarchyConfig
from repro.timing.config import MachineConfig
from repro.timing.stats import SimStats
from repro.workloads.suite import build

SMALL_PHARMACY = dict(n_xact=700, n_drugs=16384, hot_drugs=1024)


def small_runner(cache_dir) -> ExperimentRunner:
    """A cache-backed runner pre-seeded with a small pharmacy build."""
    runner = ExperimentRunner(
        artifacts=ArtifactCache(cache_dir) if cache_dir else None
    )
    for input_name in ("train", "test"):
        small = build("pharmacy", input_name, **SMALL_PHARMACY)
        runner._workloads[
            ("pharmacy", input_name, small.hierarchy)
        ] = small
    return runner


class TestStableKey:
    def test_deterministic(self):
        a = stable_key("trace", workload="mcf", machine=MachineConfig())
        b = stable_key("trace", workload="mcf", machine=MachineConfig())
        assert a == b and len(a) == 64

    def test_sensitive_to_parts(self):
        base = stable_key("trace", workload="mcf", machine=MachineConfig())
        assert base != stable_key(
            "trace", workload="gcc", machine=MachineConfig()
        )
        assert base != stable_key(
            "trace", workload="mcf", machine=MachineConfig(bw_seq=4)
        )
        assert base != stable_key(
            "baseline", workload="mcf", machine=MachineConfig()
        )

    def test_nested_dataclasses_canonicalized(self):
        a = stable_key("baseline", hierarchy=HierarchyConfig())
        b = stable_key("baseline", hierarchy=HierarchyConfig())
        c = stable_key("baseline", hierarchy=HierarchyConfig(mem_latency=140))
        assert a == b
        assert a != c

    def test_rejects_unencodable(self):
        with pytest.raises(TypeError):
            stable_key("trace", payload=object())


class TestProgramDigest:
    def test_same_build_same_digest(self):
        a = build("pharmacy", "train", **SMALL_PHARMACY)
        b = build("pharmacy", "train", **SMALL_PHARMACY)
        assert program_digest(a.program) == program_digest(b.program)

    def test_different_input_different_digest(self):
        a = build("pharmacy", "train", **SMALL_PHARMACY)
        b = build("pharmacy", "train", n_xact=300, n_drugs=16384, hot_drugs=1024)
        assert program_digest(a.program) != program_digest(b.program)

    def test_memoized_on_program(self):
        workload = build("pharmacy", "train", **SMALL_PHARMACY)
        first = program_digest(workload.program)
        assert workload.program._repro_digest == first
        assert program_digest(workload.program) == first


class TestFromEnv:
    def test_default_root(self):
        cache = ArtifactCache.from_env({})
        assert cache is not None
        assert cache.root.name == "repro"

    def test_custom_root(self, tmp_path):
        cache = ArtifactCache.from_env({"REPRO_CACHE_DIR": str(tmp_path)})
        assert cache.root == tmp_path

    @pytest.mark.parametrize("value", ["", "0", "off", "OFF", "none", "disabled"])
    def test_disabled(self, value):
        assert ArtifactCache.from_env({"REPRO_CACHE_DIR": value}) is None


class TestStorage:
    def test_json_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stats = SimStats(mode="baseline", cycles=100, instructions=80)
        stats.miss_exposure = {12: [3, 210.0]}
        key = cache.key("baseline", anything=1)
        assert cache.load("baseline", key) is None
        cache.store("baseline", key, stats.to_dict())
        loaded = SimStats.from_dict(cache.load("baseline", key))
        assert loaded == stats

    def test_pickle_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key("selection", anything=2)
        cache.store("selection", key, {"pthreads": [1, 2, 3]})
        assert cache.load("selection", key) == {"pthreads": [1, 2, 3]}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key("baseline", anything=3)
        cache.store("baseline", key, {"cycles": 1})
        cache.path("baseline", key).write_text("{ not json")
        assert cache.load("baseline", key) is None

    def test_concurrent_stores_of_one_key_all_succeed(self, tmp_path):
        """Threads storing the same key never share a temporary file.

        Every writer blocks mid-write (inside pickling) until all have
        opened their temporary file, then all race to rename it.
        """
        writers = 4
        barrier = threading.Barrier(writers, timeout=30)

        class MidWrite:
            def __reduce__(self):
                barrier.wait()
                return (int, (7,))

        cache = ArtifactCache(tmp_path)
        key = cache.key("selection", anything=5)
        errors = []

        def store():
            try:
                cache.store("selection", key, [MidWrite()])
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=store) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert cache.load("selection", key) == [7]
        assert list(cache.path("selection", key).parent.iterdir()) == [
            cache.path("selection", key)
        ]

    def test_entries_get_the_umask_mode(self, tmp_path):
        """Entries are as readable as a plain ``open()`` would make them."""
        cache = ArtifactCache(tmp_path)
        key = cache.key("selection", anything=6)
        cache.store("selection", key, [1])
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IMODE(cache.path("selection", key).stat().st_mode)
        assert mode == 0o666 & ~umask

    def test_unknown_kind_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(KeyError):
            cache.key("mystery", anything=4)

    def test_entry_count_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(3):
            cache.store("baseline", cache.key("baseline", i=i), {"i": i})
        cache.store("selection", cache.key("selection", i=0), [0])
        counts = cache.entry_count()
        assert counts["baseline"] == 3
        assert counts["selection"] == 1
        assert cache.size_bytes() > 0
        assert cache.clear() == 4
        assert sum(cache.entry_count().values()) == 0


class TestPerfCounters:
    def test_accumulate_and_merge(self):
        perf = PerfCounters()
        perf.add_time("trace", 1.5)
        perf.miss("trace")
        perf.hit("baseline")
        other = PerfCounters()
        other.add_time("trace", 0.5)
        other.disk_hit("trace")
        perf.merge(other)
        assert perf.stage_seconds["trace"] == 2.0
        assert perf.misses == {"trace": 1}
        assert perf.hits == {"baseline": 1}
        assert perf.disk_hits == {"trace": 1}
        assert perf.computations() == 1

    def test_since_delta(self):
        perf = PerfCounters()
        perf.miss("trace")
        before = perf.snapshot()
        perf.miss("trace")
        perf.hit("trace")
        delta = perf.since(before)
        assert delta.misses == {"trace": 1}
        assert delta.hits == {"trace": 1}

    def test_render_mentions_stages(self):
        perf = PerfCounters()
        perf.add_time("trace", 0.25)
        perf.miss("trace")
        report = perf.render()
        assert "trace" in report
        assert "disk hits" in report


class TestRunnerIntegration:
    def test_warm_cache_rerun_computes_nothing(self, tmp_path):
        config = ExperimentConfig(workload="pharmacy", validate=True)

        cold = small_runner(tmp_path)
        first = cold.run(config)
        assert cold.perf.misses["trace"] == 1
        assert cold.perf.misses["baseline"] == 1
        assert cold.perf.misses["selection"] == 1
        assert cold.perf.misses["perfect_l2"] == 1

        warm = small_runner(tmp_path)
        second = warm.run(config)
        for kind in ("trace", "baseline", "selection", "perfect_l2"):
            assert warm.perf.misses.get(kind, 0) == 0, kind
            assert warm.perf.disk_hits[kind] == 1, kind
        assert second.summary_row() == first.summary_row()
        assert (
            second.validation["perfect_l2"].ipc
            == first.validation["perfect_l2"].ipc
        )

    def test_cache_artifacts_are_content_addressed(self, tmp_path):
        runner = small_runner(tmp_path)
        runner.run(ExperimentConfig(workload="pharmacy"))
        cache = runner.artifacts
        trace_files = list((cache.root / "trace").glob("*/*.json"))
        assert len(trace_files) == 1
        payload = json.loads(trace_files[0].read_text())
        assert payload["instructions"] > 0

    def test_disabled_cache_keeps_everything_in_memory(self, tmp_path):
        runner = small_runner(None)
        runner.run(ExperimentConfig(workload="pharmacy"))
        assert runner.perf.disk_hits == {}
        assert runner.perf.misses["trace"] == 1
