"""Self-time arithmetic of the per-layer accumulators."""

import sys
import types

import pytest

from layers import LayerClock, _rebind, layer_metrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    layers = LayerClock(clock)

    def inner():
        clock.now += 4.0

    wrapped_inner = layers.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 2.0
        wrapped_inner()
        clock.now += 3.0

    layers.wrap("outer", outer)()
    assert layers.calls == {"outer": 1, "inner": 2}
    assert layers.total["outer"] == 14.0
    assert layers.total["inner"] == 8.0
    assert layers.self_time["outer"] == 6.0
    assert layers.self_time["inner"] == 8.0
    assert layers.covered() == 14.0


def test_self_time_of_deeper_nesting_and_siblings():
    clock = FakeClock()
    layers = LayerClock(clock)
    leaf = layers.wrap("leaf", lambda: setattr(clock, "now", clock.now + 1.0))

    def mid():
        clock.now += 2.0
        leaf()

    mid = layers.wrap("mid", mid)

    def top():
        mid()
        clock.now += 5.0

    layers.wrap("top", top)()
    leaf()
    assert layers.total == {"leaf": 2.0, "mid": 3.0, "top": 8.0}
    assert layers.self_time == {"leaf": 2.0, "mid": 2.0, "top": 5.0}
    assert layers.covered() == 9.0


def test_raising_call_is_still_accounted():
    clock = FakeClock()
    layers = LayerClock(clock)

    def boom():
        clock.now += 1.5
        raise ValueError("x")

    with pytest.raises(ValueError):
        layers.wrap("boom", boom)()
    assert layers.total["boom"] == 1.5
    assert layers._children == []


def test_name_may_depend_on_arguments_and_results_are_counted():
    clock = FakeClock()
    layers = LayerClock(clock)

    def hook(result, args, kwargs):
        layers.counts["work"] += result

    run = layers.wrap(lambda args, kwargs: f"mode.{args[0]}", lambda mode: 7, hook)
    run("a")
    run("b")
    run("a")
    assert layers.calls == {"mode.a": 2, "mode.b": 1}
    assert layers.counts["work"] == 21


def test_fixpoint_is_select_from_tree_minus_enumerate():
    layers = LayerClock(FakeClock())
    layers.total["selection.select_from_tree"] = 5.0
    layers.total["selection.enumerate"] = 3.5
    layers.self_time["selection.enumerate"] = 2.0
    layers.total["selection.total"] = 8.0
    out = layer_metrics(layers, wall_s=10.0, tier_up={"seconds": 0.0, "count": 0})
    assert out["selection.fixpoint_s"] == 1.5
    assert out["selection.enumerate_self_s"] == 2.0
    assert out["layers.selection_share"] == 0.8


def test_rebind_replaces_every_imported_copy():
    def original():
        return 1

    home = types.ModuleType("repro_bench_fake_home")
    user = types.ModuleType("repro_bench_fake_user")
    home.fn = original
    user.alias = original
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        assert _rebind(original, lambda: 2) == 2
        assert home.fn() == 2 and user.alias() == 2
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]
