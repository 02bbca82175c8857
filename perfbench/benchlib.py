"""Helpers shared by the benchmark driver, its worker and its tests.

Nothing here imports the program under test: the driver only reaches
``repro`` through subprocesses whose ``PYTHONPATH`` points at the
checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Seed that reproduces the suite's own ``train`` inputs unchanged.
DEFAULT_SEED = 0

#: Suite workloads of the two Table 2 workloads.  A subset, so that one
#: cold pass fits the run budget; it keeps the full suite's profile
#: (selection-heavy when cold, simulation-heavy when warm).
TABLE2_WORKLOADS = ("crafty", "gap", "parser", "twolf", "vortex")

#: Environment knobs removed from every child so the defaults are measured.
ISOLATED_ENV = ("REPRO_JOBS", "REPRO_VERIFY", "REPRO_ENGINE", "REPRO_TIER_THRESHOLD")

#: Tail latency rank, fixed for ``serve_miss``: p75 has 10 samples
#: beyond it from 40 samples on, so a run sends at least that many.
TAIL_PERCENTILE = 75


def repo_root() -> Path:
    """The checkout this benchmark file lives in."""
    return Path(__file__).resolve().parent.parent


def builder_seed(seed: int, workload: str) -> Optional[int]:
    """The suite builder's ``seed`` input for one workload.

    ``None`` for the default seed, which keeps the workload's own train
    input, so its results are those of ``repro table2``.
    """
    if seed == DEFAULT_SEED:
        return None
    return random.Random(f"perfbench:{workload}:{seed}").randrange(1, 2**31)


# -- result digests ----------------------------------------------------


def payload_digest(payload: Dict[str, Any]) -> str:
    """Digest of one cell's result payload, wall-clock ``timings`` excluded.

    The payload is the program's own ``result_payload`` document: the
    simulated stats, the selection's trigger PCs and body lengths, and the
    predictions.
    """
    body = {key: value for key, value in payload.items() if key != "timings"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def combined_digest(digests: Iterable[str]) -> str:
    """One digest over an ordered sequence of cell digests."""
    hasher = hashlib.sha256()
    for digest in digests:
        hasher.update(digest.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources of a checkout."""
    hasher = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = root / top
        for path in sorted(base.rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if path.suffix not in (".py", ".json", ".toml"):
                continue
            hasher.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
            hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()


class DigestLedger:
    """Digests seen in earlier runs of the same code, kept in the checkout.

    The first run that produces an item records its digest; every later
    run of the same code must reproduce it.  Items are grouped by scope,
    for example ``table2:seed=3`` or ``serve``.
    """

    def __init__(self, path: Path, code_key: str) -> None:
        self.path = path
        self.code_key = code_key
        try:
            self._all = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            self._all = {}
        self._mine = self._all.setdefault(code_key, {})

    def check(self, scope: str, item: str, digest: str) -> bool:
        """Record ``digest`` or compare it; False means a mismatch."""
        known = self._mine.setdefault(scope, {})
        expected = known.setdefault(item, digest)
        return expected == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._all, sort_keys=True))
        os.replace(tmp, self.path)


# -- statistics ----------------------------------------------------------


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it.

    Nearest rank: percentile ``p`` is the ``ceil(p * n / 100)``-th
    smallest sample, so ``n - ceil(p * n / 100) >= 10``.  ``None`` when
    ``n <= 10``.
    """
    if n <= 10:
        return None
    return (100 * (n - 10)) // n


def min_samples_for(percentile: int) -> int:
    """Fewest samples for which ``percentile`` has 10 samples beyond it."""
    n = 11
    while (tail_percentile(n) or 0) < percentile:
        n += 1
    return n


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


# -- environment ---------------------------------------------------------


def child_env(root: Path, cache_dir: Path) -> Dict[str, str]:
    """Environment for a process of the program under test.

    A fresh artifact store, the checkout's sources only, and none of the
    knobs that would change what gets measured.
    """
    env = dict(os.environ)
    for name in ISOLATED_ENV:
        env.pop(name, None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(root / "src")
    return env


def fresh_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def run_info(root: Path, code_key: str) -> Dict[str, Any]:
    """Where a result came from: commit, sources, Python and cores."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "source_digest": code_key,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    text = Path(f"/proc/{pid}/status").read_text()
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Any]
) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def chunks(items: Sequence[str], parts: int) -> List[List[str]]:
    """Split ``items`` round-robin into ``parts`` non-empty lists."""
    out: List[List[str]] = [[] for _ in range(parts)]
    for index, item in enumerate(items):
        out[index % parts].append(item)
    return [chunk for chunk in out if chunk]
