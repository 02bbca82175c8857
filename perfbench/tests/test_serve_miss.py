"""The serve_miss request generator and response checks."""

import itertools

from serve_miss import (
    MIN_REQUESTS,
    SERVE_WORKLOADS,
    payload_problems,
    priming_requests,
    request_key,
    request_sequence,
)


def _take(seed, n):
    return list(itertools.islice(request_sequence(seed), n))


def test_sequence_is_seed_deterministic():
    assert _take(7, 100) == _take(7, 100)
    assert _take(7, 100) != _take(8, 100)


def test_sequence_never_repeats_and_never_matches_priming():
    docs = list(request_sequence(3))
    keys = [request_key(doc) for doc in docs]
    assert len(docs) > 10 * MIN_REQUESTS
    assert len(set(keys)) == len(keys)
    assert not set(keys) & {request_key(doc) for doc in priming_requests()}


def test_every_seed_sends_the_same_mix():
    for seed in (0, 1, 99):
        docs = _take(seed, 2 * len(SERVE_WORKLOADS))
        assert [d["workload"] for d in docs] == [
            name for name in SERVE_WORKLOADS for _ in range(2)
        ]
        assert all("constraints" in d for d in docs[0::2])
        assert all(d["validate"] and "machine" in d for d in docs[1::2])


def _ok_payload(workload="parser"):
    return {
        "status": "ok",
        "workload": workload,
        "summary": {"base_ipc": 1.0, "preexec_ipc": 1.5, "speedup_pct": 50.0},
        "stats": {"validation": {}},
        "selection": {
            "triggers": [1],
            "lengths": [9],
            "prediction": {"predicted_ipc": 2.0},
        },
    }


def test_payload_checks():
    doc = {"workload": "parser", "constraints": {"scope": 512}}
    assert payload_problems(doc, 200, _ok_payload()) == []
    assert payload_problems(doc, 500, _ok_payload()) == ["HTTP 500"]
    assert payload_problems(doc, 200, _ok_payload("twolf"))
    assert payload_problems(doc, 200, {"status": "budget_exceeded"})
    assert payload_problems(doc, 200, {"status": "ok", "workload": "parser"})
    validated = dict(doc, validate=True)
    assert payload_problems(validated, 200, _ok_payload()) == [
        "validation runs missing"
    ]
