"""The benchmark's own arithmetic: tail rank, digests, ledger, seeds, env."""

import math

from benchlib import (
    DEFAULT_SEED,
    ISOLATED_ENV,
    TAIL_PERCENTILE,
    DigestLedger,
    builder_seed,
    child_env,
    chunks,
    combined_digest,
    min_samples_for,
    payload_digest,
    percentile,
    tail_percentile,
)


def _beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p * n / 100))


def test_tail_rank_is_highest_percentile_with_ten_beyond():
    for n in range(11, 400):
        p = tail_percentile(n)
        assert _beyond(n, p) >= 10
        assert p == 99 or _beyond(n, p + 1) < 10


def test_tail_rank_needs_more_than_ten_samples():
    assert tail_percentile(10) is None
    assert tail_percentile(0) is None
    assert tail_percentile(11) == 9


def test_fixed_tail_rank_sizes_the_run():
    assert TAIL_PERCENTILE == 75
    assert min_samples_for(75) == 40
    assert tail_percentile(40) == 75
    assert tail_percentile(39) == 74


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 41)]
    assert percentile(samples, 50) == 20.0
    assert percentile(samples, 75) == 30.0
    assert percentile(samples, 100) == 40.0
    assert percentile([3.0], 75) == 3.0


def _payload():
    return {
        "status": "ok",
        "stats": {"preexec": {"cycles": 1000, "instructions": 900}},
        "selection": {"triggers": [4, 9], "lengths": [11, 13]},
        "timings": {"trace": 0.25, "selection": 1.5},
    }


def test_digest_ignores_timings():
    a, b = _payload(), _payload()
    b["timings"] = {"trace": 9.0}
    assert payload_digest(a) == payload_digest(b)
    del b["timings"]
    assert payload_digest(a) == payload_digest(b)


def test_digest_changes_when_a_stat_changes():
    a, b = _payload(), _payload()
    b["stats"]["preexec"]["cycles"] += 1
    assert payload_digest(a) != payload_digest(b)
    c = _payload()
    c["selection"]["lengths"] = [11, 12]
    assert payload_digest(a) != payload_digest(c)


def test_combined_digest_depends_on_order():
    assert combined_digest(["a", "b"]) != combined_digest(["b", "a"])
    assert combined_digest(["a", "b"]) == combined_digest(iter(["a", "b"]))


def test_ledger_records_then_checks(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = DigestLedger(path, "code-1")
    assert ledger.check("table2:seed=3", "gap", "d1")
    assert ledger.check("table2:seed=3", "gap", "d1")
    assert not ledger.check("table2:seed=3", "gap", "d2")
    ledger.save()
    again = DigestLedger(path, "code-1")
    assert not again.check("table2:seed=3", "gap", "d2")
    assert again.check("table2:seed=4", "gap", "d2")
    other_code = DigestLedger(path, "code-2")
    assert other_code.check("table2:seed=3", "gap", "d2")


def test_default_seed_keeps_train_inputs():
    assert builder_seed(DEFAULT_SEED, "gap") is None
    assert builder_seed(5, "gap") == builder_seed(5, "gap")
    assert builder_seed(5, "gap") != builder_seed(6, "gap")
    assert builder_seed(5, "gap") != builder_seed(5, "twolf")


def test_child_env_isolates_the_program(tmp_path, monkeypatch):
    for name in ISOLATED_ENV:
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    env = child_env(tmp_path, tmp_path / "store")
    assert not set(ISOLATED_ENV) & set(env)
    assert env["REPRO_CACHE_DIR"] == str(tmp_path / "store")
    assert env["PYTHONPATH"] == str(tmp_path / "src")


def test_chunks_round_robin():
    assert chunks(["a", "b", "c"], 2) == [["a", "c"], ["b"]]
    assert chunks(["a"], 2) == [["a"]]
