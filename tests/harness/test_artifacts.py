"""Tests for the persistent artifact cache and the runner's use of it."""

import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.harness import artifacts
from repro.harness.artifacts import ArtifactCache, program_digest, stable_key
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.memory.hierarchy import HierarchyConfig
from repro.obs import reset_registry
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


#: Prints the trace-stage store key of a one-instruction workload, using
#: whichever ``repro`` package is first on ``PYTHONPATH``.
_STAGE_KEY_SCRIPT = """
from repro.harness.experiment import ExperimentRunner
from repro.isa import assemble
from repro.memory.hierarchy import HierarchyConfig
from repro.workloads.suite import Workload

program = assemble("halt", name="tiny")
workload = Workload("tiny", "train", program, HierarchyConfig(), "")
print(ExperimentRunner()._stage_key("trace", workload))
"""


#: One small compiled-engine pipeline run against the environment's store.
_COLD_RUN_SCRIPT = """
from repro.harness.artifacts import ArtifactCache
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.workloads.suite import build

runner = ExperimentRunner(artifacts=ArtifactCache.from_env())
small = build("pharmacy", "train", n_xact=700, n_drugs=16384, hot_drugs=1024)
runner._workloads[("pharmacy", "train", small.hierarchy)] = small
runner.run(ExperimentConfig(workload="pharmacy"))
"""


def _run_python(script: str, pythonpath: Path, **env) -> str:
    """Run ``script`` in a fresh interpreter importing ``repro`` from
    ``pythonpath``; returns its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=pythonpath,
        env=dict(os.environ, PYTHONPATH=str(pythonpath), **env),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout.strip()


class TestSourceDigest:
    def test_edit_to_the_package_changes_stage_keys(self, tmp_path):
        """A comment added to the slicer moves every store key."""
        package = Path(repro.__file__).parent
        copies = {}
        for name in ("same", "edited"):
            copies[name] = tmp_path / name
            shutil.copytree(
                package,
                copies[name] / "repro",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        slicer = copies["edited"] / "repro" / "slicing" / "slicer.py"
        slicer.write_text(slicer.read_text() + "# an edit\n")

        same = _run_python(_STAGE_KEY_SCRIPT, copies["same"])
        edited = _run_python(_STAGE_KEY_SCRIPT, copies["edited"])
        assert len(same) == len(edited) == 64
        assert edited != same
        # The digest hashes relative paths, so an unedited copy anywhere
        # else agrees with the package under test.
        assert same == _run_python(_STAGE_KEY_SCRIPT, package.parent)


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

    def test_retired_kind_is_counted_and_cleared(self, tmp_path):
        """Stores filled by older builds keep a ``codegen`` directory:
        clear-all removes its entries, and nothing off the layout."""
        cache = ArtifactCache(tmp_path)
        cache.store("trace", cache.key("trace", i=0), {"i": 0})
        retired = tmp_path / "codegen" / "ab" / ("ab" + "0" * 62 + ".json")
        retired.parent.mkdir(parents=True)
        retired.write_text('{"source": "def _bind(ctx): pass"}')
        strays = [
            tmp_path / "README",
            tmp_path / "codegen" / "notes.txt",
            tmp_path / "codegen" / "ab" / "notes.json",
            tmp_path / "trace" / "ab" / ("ab" + "0" * 62 + ".txt"),
        ]
        for stray in strays:
            stray.parent.mkdir(parents=True, exist_ok=True)
            stray.write_text("keep")

        counts = cache.entry_count()
        assert counts == {
            "trace": 1, "baseline": 0, "perfect_l2": 0, "selection": 0,
            "codegen": 1,
        }
        assert cache.size_bytes("codegen") == retired.stat().st_size
        assert cache.size_bytes() == sum(
            cache.size_bytes(kind) for kind in counts
        )
        assert cache.clear() == 2
        assert not retired.exists()
        assert all(stray.read_text() == "keep" for stray in strays)
        assert sum(cache.entry_count().values()) == 0
        with pytest.raises(KeyError):
            cache.clear("codegen")


#: Store keys of one fixed small config (pharmacy ``SMALL_PHARMACY``
#: train, default machine and constraints, ``validate=True``), one per
#: stage kind, under a fixed source digest.  Pinned so a refactor of the
#: runner's stage caches cannot silently change what a key covers.
PINNED_STORE_KEYS = {
    "trace": "91f578ab7d66bc1f71fea6eb08f50706e537e2a1f14e1f5a064568637a3c31ed",
    "baseline": "b4e2551766b6e560391af4c84afeb12ac1075cd5d83a363288ef1303c83d40ca",
    "perfect_l2": "814b7e283f29f669f26193fd077dcc73bf64372955d756fafff306421dd37634",
    "selection": "fb42726766ecd72cdf27365fb7bf41d1f31dad1bd5d5af62870ba603bf788cec",
}


class TestStoreKeys:
    def test_stage_keys_are_pinned(self, tmp_path, monkeypatch):
        # Any source edit moves every key; pin them under a fixed digest.
        monkeypatch.setattr(artifacts, "source_digest", lambda: "0" * 64)
        runner = small_runner(tmp_path)
        runner.run(ExperimentConfig(workload="pharmacy", validate=True))
        stored = {
            kind: sorted(p.stem for p in (tmp_path / kind).glob("*/*"))
            for kind in PINNED_STORE_KEYS
        }
        assert stored == {
            kind: [key] for kind, key in PINNED_STORE_KEYS.items()
        }


class TestRunnerIntegration:
    def test_warm_cache_rerun_computes_nothing(self, tmp_path, stage_counts):
        config = ExperimentConfig(workload="pharmacy", validate=True)
        kinds = ("trace", "baseline", "selection", "perfect_l2")

        cold = small_runner(tmp_path)
        first = cold.run(config)
        stages = stage_counts()
        for kind in kinds:
            assert stages[kind]["computed"] == 1, kind

        reset_registry()
        warm = small_runner(tmp_path)
        second = warm.run(config)
        stages = stage_counts()
        for kind in kinds:
            assert stages[kind]["computed"] == 0, kind
            assert stages[kind]["disk_hits"] == 1, kind
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

    def test_cold_run_stores_no_generated_code(self, tmp_path):
        """Generated code lives only in the in-process compile memo.

        Run in a fresh process so nothing compiled earlier in this one
        is reused and the store root comes from the environment.
        """
        store = tmp_path / "store"
        _run_python(
            _COLD_RUN_SCRIPT,
            Path(repro.__file__).parent.parent,
            REPRO_CACHE_DIR=str(store),
            REPRO_ENGINE="compiled",
        )
        assert sorted(p.name for p in store.iterdir()) == [
            "baseline", "selection", "trace",
        ]

    def test_disabled_cache_keeps_everything_in_memory(self, stage_counts):
        runner = small_runner(None)
        runner.run(ExperimentConfig(workload="pharmacy"))
        stages = stage_counts()
        assert all(row["disk_hits"] == 0 for row in stages.values())
        assert stages["trace"]["computed"] == 1
