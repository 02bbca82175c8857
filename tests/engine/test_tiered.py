"""Block-dispatcher mechanics and the persistent codegen cache.

The equivalence suite proves the tiered and compiled engines'
*results*; these tests pin their *mechanics*: the entry-count threshold
compiles exactly the hot blocks, short tiered runs never pay for
codegen, the compiled engine runs generated code from instruction 0
(even for runs too short to ever tier up), its eager compile asks for
the same code-cache key as before, warm disk-cache hits skip source
emission entirely, and a corrupt cache entry degrades to a recompile
instead of an error.
"""

import pytest

from repro.engine import compiler
from repro.engine import functional as functional_module
from repro.engine.codecache import reset_code_cache
from repro.engine.compiler import (
    ENGINE_COMPILED,
    ENGINE_INTERP,
    ENGINE_TIERED,
    TIER_SLICE,
)
from repro.engine.functional import FunctionalSimulator
from repro.isa import assemble
from repro.memory.hierarchy import HierarchyConfig
from repro.obs import get_registry, reset_registry
from repro.timing.core import TimingSimulator

#: A hot loop (3000 iterations, ~9000 instructions — comfortably past
#: TIER_SLICE) followed by a cold straight-line tail that runs once.
#: Block leaders: 0 (entry), 1 (loop target), 4 (loop fallthrough).
HOT_COLD_SOURCE = """
    addi r1, r0, 3000
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bgt  r1, r0, loop
    addi r3, r0, 7
    halt
"""

HOT_LEADER = 1
COLD_LEADER = 4

#: The same shape with 300 iterations: 903 dynamic instructions, well
#: under TIER_SLICE, so the tiered engine never scans for hot blocks.
SHORT_SOURCE = HOT_COLD_SOURCE.replace("3000", "300")
SHORT_INSTRUCTIONS = 903

#: Code-cache keys the compiled engine's whole-program compile of
#: ``assemble(SHORT_SOURCE, name="eager_test")`` asked for before it
#: became the tiered dispatcher with every block hot: the functional
#: (tracing, no cache model) variant and the timing baseline variant on
#: the default machine.  Cache entries written under these keys must
#: keep hitting.  A deliberate ``CODEGEN_SCHEMA_VERSION`` bump changes
#: them; update the digests with it.
EAGER_FUNCTIONAL_KEY = (
    "9c0a1a87533ec5b2183664b77a36ff36abbd4b5c49ea9abdfba43d35f9acddd6"
)
EAGER_TIMING_KEY = (
    "cbb0ca037f84655bae966829f9c12f0df7df4326de273ef07b8bbbee3cc78ca5"
)


def _program(name="tiered_test"):
    return assemble(HOT_COLD_SOURCE, name=name)


def _run(program, engine, **kwargs):
    sim = FunctionalSimulator(program, engine=engine)
    result = sim.run(**kwargs)
    return sim, result


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the codegen cache at a private root for the test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_code_cache()
    yield tmp_path
    reset_code_cache()


class TestTierThreshold:
    def test_hot_blocks_compile_cold_blocks_stay_interpreted(
        self, monkeypatch
    ):
        monkeypatch.setattr(compiler, "TIER_THRESHOLD", 10)
        program = _program()
        sim, result = _run(program, ENGINE_TIERED)
        assert sim.last_engine == ENGINE_TIERED
        tier = sim.last_tier
        assert tier["tier_ups"] >= 1
        # Exactly the loop block crossed the threshold; the entry and
        # tail blocks each ran once and stay interpreted.
        assert tier["hot"] == (HOT_LEADER,)
        assert tier["compiled_blocks"] == 1
        assert tier["interp_blocks"] >= 1
        # And the mixed run still matches the pure interpreter.
        _sim, ref = _run(program, ENGINE_INTERP)
        assert result.to_dict() == ref.to_dict()

    def test_short_run_never_compiles(self, monkeypatch):
        monkeypatch.setattr(compiler, "TIER_THRESHOLD", 10)
        program = _program()
        sim, result = _run(
            program, ENGINE_TIERED, max_instructions=TIER_SLICE // 2
        )
        assert sim.last_tier["tier_ups"] == 0
        assert sim.last_tier["compiled_blocks"] == 0
        _sim, ref = _run(
            program, ENGINE_INTERP, max_instructions=TIER_SLICE // 2
        )
        assert result.to_dict() == ref.to_dict()

    def test_unreachable_threshold_stays_interpreted(self, monkeypatch):
        monkeypatch.setattr(compiler, "TIER_THRESHOLD", 1_000_000)
        program = _program()
        sim, result = _run(program, ENGINE_TIERED)
        assert sim.last_tier["tier_ups"] == 0
        _sim, ref = _run(program, ENGINE_INTERP)
        assert result.to_dict() == ref.to_dict()


class TestEagerCompile:
    """``compiled`` is the tiered dispatcher with every block hot."""

    def test_short_runs_execute_compiled_blocks(self, monkeypatch):
        # The fuzz oracle's engine_equivalence family relies on this:
        # generated programs often finish before the first tier scan,
        # yet a compiled run must still execute generated code.
        program = assemble(SHORT_SOURCE, name="eager_test")
        tiered = FunctionalSimulator(program, engine=ENGINE_TIERED)
        tiered.run()
        assert tiered.last_tier["compiled_blocks"] == 0
        _sim, ref = _run(program, ENGINE_INTERP)
        timing_ref = TimingSimulator(
            program, HierarchyConfig(), engine=ENGINE_INTERP
        ).run()

        # With whole blocks always in budget, nothing is interpreted.
        def no_interp(*args, **kwargs):
            raise AssertionError("compiled run fell back to the interpreter")

        monkeypatch.setattr(functional_module, "_interp", no_interp)
        monkeypatch.setattr(TimingSimulator, "_interp", no_interp)

        sim, result = _run(program, ENGINE_COMPILED)
        assert result.instructions == SHORT_INSTRUCTIONS < TIER_SLICE
        assert sim.last_engine == ENGINE_COMPILED
        assert sim.last_tier["tier_ups"] == 0
        assert sim.last_tier["compiled_blocks"] == 3
        assert sim.last_tier["interp_blocks"] == 0
        assert result.to_dict() == ref.to_dict()

        timing = TimingSimulator(
            program, HierarchyConfig(), engine=ENGINE_COMPILED
        )
        stats = timing.run()
        assert stats.instructions == SHORT_INSTRUCTIONS
        assert timing.last_engine == ENGINE_COMPILED
        assert timing.last_tier["compiled_blocks"] == 3
        assert stats.to_dict() == timing_ref.to_dict()

    def test_eager_compile_keeps_its_cache_key(self, monkeypatch):
        requested = []
        real_key = compiler._compile_key

        def spy(*args, **kwargs):
            key = real_key(*args, **kwargs)
            requested.append(key)
            return key

        monkeypatch.setattr(compiler, "_compile_key", spy)
        program = assemble(SHORT_SOURCE, name="eager_test")
        _run(program, ENGINE_COMPILED)
        assert requested == [EAGER_FUNCTIONAL_KEY]
        requested.clear()
        TimingSimulator(
            program, HierarchyConfig(), engine=ENGINE_COMPILED
        ).run()
        assert requested == [EAGER_TIMING_KEY]


def _codegen_counts():
    """``(hits, misses)`` of the codegen store in the global registry."""
    registry = get_registry()
    return (
        registry.counter("engine.codegen.cache_hits").value,
        registry.counter("engine.codegen.cache_misses").value,
    )


class TestCodeCache:
    def test_warm_disk_hit_skips_emission(
        self, cache_dir, fresh_obs, monkeypatch
    ):
        program = _program()
        _sim, cold = _run(program, ENGINE_COMPILED)
        assert _codegen_counts()[1] >= 1

        # Fresh process-state: new singleton, new simulator, and source
        # emission booby-trapped — the warm run must never reach it.
        reset_code_cache()
        reset_registry()

        def boom(*args, **kwargs):
            raise AssertionError("emission not skipped on warm cache")

        monkeypatch.setattr(compiler, "_emit_functional_block", boom)
        sim, warm = _run(program, ENGINE_COMPILED)
        assert sim.last_engine == ENGINE_COMPILED
        assert warm.to_dict() == cold.to_dict()
        hits, misses = _codegen_counts()
        assert hits >= 1
        assert misses == 0

    def test_tiered_engine_hits_the_same_cache(
        self, cache_dir, fresh_obs, monkeypatch
    ):
        monkeypatch.setattr(compiler, "TIER_THRESHOLD", 10)
        program = _program()
        _sim, cold = _run(program, ENGINE_TIERED)
        reset_code_cache()
        reset_registry()
        sim, warm = _run(program, ENGINE_TIERED)
        assert sim.last_tier["tier_ups"] >= 1
        assert warm.to_dict() == cold.to_dict()
        assert _codegen_counts()[0] >= 1

    def test_corrupt_entry_falls_back_to_recompile(self, cache_dir, fresh_obs):
        program = _program()
        _sim, cold = _run(program, ENGINE_COMPILED)
        entries = list(cache_dir.glob("codegen/*/*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{definitely not json")

        reset_code_cache()
        reset_registry()
        sim, warm = _run(program, ENGINE_COMPILED)
        assert sim.last_engine == ENGINE_COMPILED
        assert warm.to_dict() == cold.to_dict()
        # The corrupt load counted as a miss and was recomputed.
        assert _codegen_counts()[1] >= 1
