"""Block-dispatcher mechanics and the in-process compile memo.

The equivalence suite proves the tiered and compiled engines'
*results*; these tests pin their *mechanics*: the entry-count threshold
compiles exactly the hot blocks, short tiered runs never pay for
codegen, the compiled engine runs generated code from instruction 0
(even for runs too short to ever tier up), and under ``REPRO_VERIFY``
each memoized compilation is translation-validated once per process.
"""

import pytest

from repro.analysis import transval
from repro.engine import compiler
from repro.engine import functional as functional_module
from repro.engine.compiler import (
    ENGINE_COMPILED,
    ENGINE_INTERP,
    ENGINE_TIERED,
    TIER_SLICE,
    clear_compile_memo,
)
from repro.engine.functional import FunctionalSimulator
from repro.isa import assemble
from repro.memory.hierarchy import HierarchyConfig
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

def _program(name="tiered_test"):
    return assemble(HOT_COLD_SOURCE, name=name)


def _run(program, engine, **kwargs):
    sim = FunctionalSimulator(program, engine=engine)
    result = sim.run(**kwargs)
    return sim, result


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


class TestValidatedOnce:
    """Under ``REPRO_VERIFY`` each memoized compilation is proved once."""

    @pytest.fixture
    def verifying(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        clear_compile_memo()
        yield
        clear_compile_memo()

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        real = getattr(transval, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(transval, name, spy)
        return calls

    def test_functional_compilation_validated_once(
        self, verifying, monkeypatch
    ):
        calls = self._spy(monkeypatch, "validate_functional")
        program = _program()
        first, ref = _run(program, ENGINE_COMPILED)
        second, again = _run(program, ENGINE_COMPILED)
        assert first is not second
        assert second.last_engine == ENGINE_COMPILED
        assert again.to_dict() == ref.to_dict()
        assert len(calls) == 1

    def test_timing_compilation_validated_once(self, verifying, monkeypatch):
        calls = self._spy(monkeypatch, "validate_timing")
        program = _program()
        runs = [
            TimingSimulator(program, HierarchyConfig(), engine=ENGINE_COMPILED)
            for _ in range(2)
        ]
        stats = [sim.run() for sim in runs]
        assert all(sim.last_engine == ENGINE_COMPILED for sim in runs)
        assert stats[0].to_dict() == stats[1].to_dict()
        assert len(calls) == 1
