"""Tests for the plain-text report renderer."""

from repro.harness.experiment import STAGE_SECONDS_BUCKETS
from repro.harness.report import (
    fmt,
    harness_stages,
    render_perf,
    render_series,
    render_table,
)
from repro.obs import MetricsRegistry


class TestFmt:
    def test_float_precision(self):
        assert fmt(3.14159, 2) == "3.14"
        assert fmt(3.14159, 0) == "3"

    def test_int_plain(self):
        assert fmt(42) == "42"

    def test_none_blank(self):
        assert fmt(None) == "-"

    def test_nan_blank(self):
        assert fmt(float("nan")) == "-"

    def test_string_passthrough(self):
        assert fmt("abc") == "abc"


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "value"],
            [["a", 1.0], ["bb", 22.5]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "22.50" in text

    def test_column_width_adapts(self):
        text = render_table(["x"], [["very-long-cell"]])
        header, sep, row = text.splitlines()
        assert len(header) == len(row)

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text


class TestRenderSeries:
    def test_structure(self):
        data = {
            "mcf": {"speedup_pct": [1.0, 2.0], "coverage_pct": [10.0, 20.0]},
        }
        text = render_series(
            "Fig", ["c1", "c2"], ["speedup_pct", "coverage_pct"], data
        )
        assert "Fig" in text
        assert "mcf speedup_pct" in text
        assert "c1" in text and "c2" in text

    def test_missing_metric_skipped(self):
        data = {"mcf": {"speedup_pct": [1.0]}}
        text = render_series("Fig", ["c1"], ["speedup_pct", "nope"], data)
        assert "nope" not in text


def _stage_registry(stage, seconds=(), hits=0, disk_hits=0, instructions=0):
    """A registry holding one stage's harness counters."""
    registry = MetricsRegistry()
    hist = registry.histogram(
        f"harness.stage.{stage}.seconds", buckets=STAGE_SECONDS_BUCKETS
    )
    for value in seconds:
        hist.observe(value)
    registry.counter(f"harness.stage.{stage}.hits").inc(hits)
    registry.counter(f"harness.stage.{stage}.disk_hits").inc(disk_hits)
    registry.counter(f"harness.stage.{stage}.instructions").inc(instructions)
    return registry


class TestRenderPerf:
    def test_render_mentions_stages(self):
        registry = _stage_registry("trace", seconds=[0.25])
        report = render_perf(registry.snapshot())
        assert "trace" in report
        assert "disk hits" in report

    def test_rows_come_from_the_snapshot(self):
        registry = _stage_registry(
            "trace", seconds=[0.5, 1.5], hits=3, instructions=4_000_000
        )
        registry.merge_snapshot(
            _stage_registry("baseline", disk_hits=2).snapshot()
        )
        registry.merge_snapshot(_stage_registry("timing").snapshot())
        stages = harness_stages(registry.snapshot())
        # A registered stage with no activity gets no row.
        assert list(stages) == ["baseline", "trace"]
        assert stages["trace"] == dict(
            seconds=2.0, computed=2, hits=3, disk_hits=0,
            instructions=4_000_000,
        )
        lines = render_perf(registry.snapshot()).splitlines()
        assert lines[-3].split() == ["baseline", "0.000", "0", "0", "2"]
        assert lines[-2].split() == ["trace", "2.000", "2", "3", "0", "2.00"]
        assert lines[-1].split() == ["total", "2.000", "2", "3", "2", "2.00"]

    def test_worker_seconds_add_up_on_merge(self):
        """Stage seconds are a histogram, so worker diffs accumulate
        (a gauge would keep only the last worker's value)."""
        coordinator = _stage_registry("timing", seconds=[1.0])
        coordinator.merge_snapshot(
            _stage_registry("timing", seconds=[2.0, 0.5]).snapshot()
        )
        row = harness_stages(coordinator.snapshot())["timing"]
        assert row["seconds"] == 3.5
        assert row["computed"] == 3
