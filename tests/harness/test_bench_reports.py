"""Bench sessions restricted to a few workloads keep the committed
full-suite tables in ``results/`` untouched."""

from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, report_dir
from repro.workloads.suite import SUITE


def test_full_suite_writes_the_committed_tables():
    assert report_dir(list(SUITE)) == RESULTS_DIR
    assert report_dir(list(reversed(SUITE))) == RESULTS_DIR


def test_restricted_session_writes_an_untracked_location():
    directory = report_dir(["mcf", "vpr.r"])
    assert directory != RESULTS_DIR
    # Still under results/, whose contents .gitignore excludes (only the
    # BENCH_*.json records are re-included).
    assert RESULTS_DIR in directory.parents
    ignore = (Path(RESULTS_DIR).parent / ".gitignore").read_text().split()
    assert "results/*" in ignore
    assert not directory.name.startswith("BENCH_")
