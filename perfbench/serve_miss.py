"""The ``serve_miss`` workload: cache-missing traffic against ``repro serve``.

The daemon runs as a subprocess of the checkout, warmed by one priming
request per served workload.  A closed loop of :data:`CLIENTS` keep-alive
clients in this process then sends requests that are all distinct, so
none can be answered from the daemon's response cache:

* half vary ``constraints`` (slicing scope, p-thread length), so the
  selection layers run again and timing runs once;
* half vary ``machine`` (p-thread contexts, burst) with validation, so
  the selection comes from the runner's memory and the baseline,
  pre-execution and validation runs all simulate.

Everything here reaches the daemon only through HTTP: ``/v1/run``,
``/metrics/json`` and ``/trace/<id>``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from benchlib import (
    TAIL_PERCENTILE,
    combined_digest,
    min_samples_for,
    payload_digest,
    peak_rss_mb,
    percentile,
)

#: Suite workloads the daemon serves.  The cheapest requests of the
#: suite, so that one run collects enough requests for the tail.
SERVE_WORKLOADS = ("crafty", "parser", "twolf")

CLIENTS = 2

#: Requests a run always sends: p75 has 10 samples beyond it from here.
MIN_REQUESTS = min_samples_for(TAIL_PERCENTILE)

#: The measured phase ends by this many seconds whatever it has collected.
HARD_CAP_S = 110.0

#: Value ranges of the varied fields.  They keep the cost of a request
#: close to that of its kind: lengths stay at or below 24, so the
#: slice-tree depth (twice the length, at least 48) does not change, and
#: scopes stay at or above 512, below which slicing gets much cheaper.
SCOPES = range(512, 1025, 32)
LENGTHS = range(8, 25)
CONTEXTS = range(1, 9)
BURSTS = range(1, 17)
DEFAULT_MACHINE = (3, 8)


def request_key(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def priming_requests() -> List[Dict[str, Any]]:
    """One default Table 2 cell per served workload."""
    return [{"workload": name, "validate": True} for name in SERVE_WORKLOADS]


def request_sequence(seed: int) -> Iterator[Dict[str, Any]]:
    """The seeded request sequence; it never repeats a config.

    Slots rotate through (workload, kind) in a fixed order, so every seed
    sends the same mix; the seed only picks each slot's values, drawn
    without replacement.  The sequence ends when a slot runs dry.
    """
    rng = random.Random(seed)
    pools: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for name in SERVE_WORKLOADS:
        constraints = [(s, n) for s in SCOPES for n in LENGTHS]
        machines = [
            (c, b) for c in CONTEXTS for b in BURSTS if (c, b) != DEFAULT_MACHINE
        ]
        rng.shuffle(constraints)
        rng.shuffle(machines)
        pools[(name, "constraints")] = constraints
        pools[(name, "machine")] = machines
    seen = {request_key(doc) for doc in priming_requests()}
    for index in itertools.count():
        name = SERVE_WORKLOADS[(index // 2) % len(SERVE_WORKLOADS)]
        kind = ("constraints", "machine")[index % 2]
        pool = pools[(name, kind)]
        if not pool:
            return
        a, b = pool.pop()
        if kind == "constraints":
            doc = {
                "workload": name,
                "constraints": {"scope": a, "max_pthread_length": b},
            }
        else:
            doc = {
                "workload": name,
                "validate": True,
                "machine": {"pthread_contexts": a, "pthread_burst": b},
            }
        key = request_key(doc)
        if key in seen:
            raise RuntimeError(f"request generator repeated {key}")
        seen.add(key)
        yield doc


# -- HTTP ----------------------------------------------------------------


class Client:
    """One keep-alive connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=150)

    def call(
        self, method: str, path: str, doc: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, str], Any]:
        body = json.dumps(doc).encode("utf-8") if doc is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, headers, json.loads(data) if data else None

    def close(self) -> None:
        self.conn.close()


# -- daemon lifecycle ----------------------------------------------------


class Daemon:
    """``repro serve`` on an ephemeral port, as a subprocess."""

    def __init__(self, root: Path, env: Dict[str, str], workdir: Path) -> None:
        self.log = workdir / "daemon.log"
        self._log_handle = self.log.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=root,
            env=env,
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
        )
        self.port = self._wait_port(timeout=60.0)

    def _wait_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        marker = b"listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = self.log.read_bytes()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0].decode())
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(
            "daemon did not start:\n" + self.log.read_text(errors="replace")
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._log_handle.close()


def counter(snapshot: Dict[str, Any], name: str) -> float:
    return snapshot["metrics"].get(name, {}).get("value", 0)


def histogram(snapshot: Dict[str, Any], name: str) -> Tuple[float, float]:
    entry = snapshot["metrics"].get(name, {})
    return entry.get("count", 0), entry.get("sum", 0.0)


# -- the closed loop -----------------------------------------------------


@dataclass
class Record:
    index: int
    doc: Dict[str, Any]
    latency: float
    done_at: float
    status: int = 0
    request_id: Optional[str] = None
    payload: Any = None
    error: Optional[str] = None


@dataclass
class LoadPhase:
    """Closed loop: each client sends its next request after a reply."""

    port: int
    seed: int
    seconds: float
    records: List[Record] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    def run(self) -> None:
        self._docs = enumerate(request_sequence(self.seed))
        self._lock = threading.Lock()
        self._issued = 0
        self.started = time.perf_counter()
        threads = [threading.Thread(target=self._client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.ended = max((r.done_at for r in self.records), default=self.started)

    def _next(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        with self._lock:
            elapsed = time.perf_counter() - self.started
            if elapsed >= HARD_CAP_S:
                return None
            if elapsed >= self.seconds and self._issued >= MIN_REQUESTS:
                return None
            item = next(self._docs, None)
            if item is not None:
                self._issued += 1
            return item

    def _client(self) -> None:
        client = Client(self.port)
        try:
            while True:
                item = self._next()
                if item is None:
                    return
                index, doc = item
                start = time.perf_counter()
                try:
                    status, headers, payload = client.call("POST", "/v1/run", doc)
                    error = None
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, headers, payload, error = 0, {}, None, repr(exc)
                end = time.perf_counter()
                record = Record(
                    index=index,
                    doc=doc,
                    latency=end - start,
                    done_at=end,
                    status=status,
                    request_id=headers.get("x-request-id"),
                    payload=payload,
                    error=error,
                )
                with self._lock:
                    self.records.append(record)
        finally:
            client.close()


def payload_problems(doc: Dict[str, Any], status: int, payload: Any) -> List[str]:
    """Reasons a served response is not a correct result for ``doc``."""
    if status != 200:
        return [f"HTTP {status}"]
    if not isinstance(payload, dict):
        return [f"malformed payload {payload!r}"]
    if payload.get("status") != "ok":
        return [f"status {payload.get('status')!r}"]
    problems = []
    if payload.get("workload") != doc["workload"]:
        problems.append("answered another workload")
    try:
        summary = payload["summary"]
        stats = payload["stats"]
        prediction = payload["selection"]["prediction"]
        if not (summary["base_ipc"] > 0 and summary["preexec_ipc"] > 0):
            problems.append("non-positive IPC")
        if prediction["predicted_ipc"] <= 0:
            problems.append("non-positive predicted IPC")
        if doc.get("validate") and set(stats["validation"]) != {
            "latency_only",
            "overhead_execute",
            "overhead_sequence",
            "perfect_l2",
        }:
            problems.append("validation runs missing")
        if len(payload["selection"]["triggers"]) != len(
            payload["selection"]["lengths"]
        ):
            problems.append("selection triggers and lengths disagree")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed payload: {exc!r}")
    return problems


def _stage_seconds(span: Dict[str, Any], name: str) -> float:
    total = span["duration"] if span.get("name") == name else 0.0
    return total + sum(_stage_seconds(c, name) for c in span.get("children", ()))


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_serve_miss(
    root: Path,
    env: Dict[str, str],
    workdir: Path,
    seed: int,
    seconds: float,
    trace: bool,
    ledger,
    log,
) -> Dict[str, Any]:
    """One ``serve_miss`` run; returns its outcome for ``run.py``."""
    spawned = time.perf_counter()
    daemon = Daemon(root, env, workdir)
    try:
        client = Client(daemon.port)
        status, _, health = client.call("GET", "/healthz")
        if status != 200 or health.get("status") != "ok":
            raise RuntimeError(f"/healthz answered {status}: {health}")
        priming = []
        for doc in priming_requests():
            status, _, payload = client.call("POST", "/v1/run", doc)
            problems = payload_problems(doc, status, payload)
            if problems:
                raise RuntimeError(f"priming {doc} failed: {problems}")
            priming.append(payload)
        setup_s = time.perf_counter() - spawned

        before = client.call("GET", "/metrics/json")[2]
        phase = LoadPhase(port=daemon.port, seed=seed, seconds=seconds)
        phase.run()
        after = client.call("GET", "/metrics/json")[2]
        spans = {}
        if trace:
            for record in phase.records:
                if record.request_id:
                    status, _, doc = client.call("GET", f"/trace/{record.request_id}")
                    if status == 200 and doc.get("spans"):
                        spans[record.index] = doc["spans"]
        rss = peak_rss_mb(daemon.proc.pid)
        client.close()
    finally:
        daemon.stop()

    failed = 0
    digests: Dict[int, str] = {}
    good = set()
    for record in sorted(phase.records, key=lambda r: r.index):
        problems = (
            [record.error] if record.error else
            payload_problems(record.doc, record.status, record.payload)
        )
        if not problems:
            digest = payload_digest(record.payload)
            digests[record.index] = digest
            if not ledger.check("serve", request_key(record.doc), digest):
                problems = ["digest differs from an earlier run"]
        if problems:
            failed += 1
            log(f"request {record.index} {request_key(record.doc)}: {problems}")
        else:
            good.add(record.index)
    for doc, payload in zip(priming_requests(), priming):
        if not ledger.check("serve", request_key(doc), payload_digest(payload)):
            failed += 1
            log(f"priming {request_key(doc)}: digest differs from an earlier run")

    ok = [r for r in phase.records if r.index in good]
    latencies = [r.latency for r in ok or phase.records]
    first = [r for r in phase.records if r.index < MIN_REQUESTS]
    hits = counter(after, "serve.requests.cache_hits") - counter(
        before, "serve.requests.cache_hits"
    )
    head = [digests.get(i, "missing") for i in range(MIN_REQUESTS)]
    log(
        "digest serve_miss seed=%d: %s"
        % (seed, combined_digest([payload_digest(p) for p in priming] + head))
    )
    log(
        f"serve_miss: {len(phase.records)} requests in "
        f"{phase.ended - phase.started:.2f} s, response-cache hits {hits:g}"
    )
    for name in SERVE_WORKLOADS:
        for kind in ("constraints", "machine"):
            mine = sorted(
                r.latency for r in ok if r.doc["workload"] == name and kind in r.doc
            )
            log(f"  {name} {kind}: " + " ".join(f"{v:.2f}" for v in mine))
    attempted = len(priming) + len(phase.records)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": max((r.done_at for r in first), default=phase.ended) - phase.started,
        "latency_p50_s": percentile(latencies, 50),
        "latency_tail_s": percentile(latencies, TAIL_PERCENTILE),
        "throughput_rps": len(ok) / (phase.ended - phase.started),
        "peak_rss_mb": rss,
        "ok_rate": (attempted - failed) / attempted,
        "speedup_pct_mean": _mean([p["summary"]["speedup_pct"] for p in priming]),
        "pred_ipc_err_pct": _mean(
            [
                100.0
                * abs(
                    p["selection"]["prediction"]["predicted_ipc"]
                    - p["summary"]["preexec_ipc"]
                )
                / p["summary"]["preexec_ipc"]
                for p in priming
            ]
        ),
    }
    batch_count, batch_sum = (
        a - b
        for a, b in zip(
            histogram(after, "serve.batch.size"), histogram(before, "serve.batch.size")
        )
    )
    traced = [(r, spans[r.index]) for r in ok if r.index in spans]
    layers = {
        "serve.service_s": _mean([s["duration"] for _, s in traced]),
        "serve.overhead_s": _mean([r.latency - s["duration"] for r, s in traced]),
        "serve.stage.selection_s": _mean(
            [_stage_seconds(s, "selection") for _, s in traced]
        ),
        "serve.stage.timing_s": _mean([_stage_seconds(s, "timing") for _, s in traced]),
        "serve.stage.validation_s": _mean(
            [_stage_seconds(s, "validation") for _, s in traced]
        ),
        "serve.batch_size_mean": batch_sum / batch_count if batch_count else 0.0,
        "serve.response_cache_hits": hits,
    }
    honest = hits == 0
    if not honest:
        log(f"serve_miss rejected: {hits:g} response-cache hits in the measured phase")
    return {
        "correct": honest and failed == 0 and len(first) == MIN_REQUESTS,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "layers": layers,
    }
