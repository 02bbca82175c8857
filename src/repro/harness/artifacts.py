"""Persistent, content-addressed artifact cache for the harness.

Every evaluation artifact (Tables 1/2, Figures 4-8, the ablations) fans
out over 10 workloads x many knob settings, but the expensive stages —
functional tracing, baseline timing, p-thread selection — depend only
on a small key: (workload program content, input, hierarchy, machine,
constraints, package version).  :class:`ArtifactCache` stores those
stage outputs on disk under a stable hash of that key, so repeated
bench sessions (and the worker processes of a parallel sweep) reuse
each other's work instead of re-simulating from scratch.

Layout: ``<root>/<kind>/<aa>/<key>.<ext>`` where ``<aa>`` is the first
two hex digits of the key (keeps directories small), ``kind`` is one of
``trace`` / ``baseline`` / ``perfect_l2`` / ``selection`` /
``codegen``, and the
extension is ``.json`` for the dict-codec kinds or ``.pkl`` for
selections (whose p-thread bodies are instruction graphs; pickle is the
pragmatic codec, and the package version baked into every key prevents
stale formats from ever colliding).

The root is ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``;
setting ``REPRO_CACHE_DIR`` to ``off`` / ``0`` / the empty string
disables persistence (see :meth:`ArtifactCache.from_env`).

:class:`PerfCounters` rides along here: per-stage wall-clock seconds
plus hit/miss counters for both the in-memory and on-disk caches.  The
runner and the sweep executor share one instance, so a report rendered
after a sweep accounts for every process that contributed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.isa.program import Program

#: Bumped whenever an on-disk codec changes shape; part of every key.
SCHEMA_VERSION = 1

#: Cache kinds and their storage codec.
_KIND_CODECS = {
    "trace": "json",
    "baseline": "json",
    "perfect_l2": "json",
    "selection": "pickle",
    "codegen": "json",
}

#: The process umask, read once at import (reading it means setting it,
#: which would race with other threads creating files).
_UMASK = os.umask(0)
os.umask(_UMASK)

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}


def _json_default(obj):
    """Canonicalize dataclasses (and tuples of them) for key hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        encoded = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        encoded["__type__"] = type(obj).__name__
        return encoded
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache key")


def stable_key(kind: str, **parts) -> str:
    """A stable hex digest of a cache key description.

    The digest covers the artifact kind, the package and schema
    versions, and every keyword part (dataclasses are canonicalized
    field by field), so any change to code version, configuration, or
    workload identity lands in a different cache slot.
    """
    # Imported lazily: repro/__init__ re-exports the harness, so a
    # module-level import here would be circular.
    from repro import __version__

    payload = {
        "kind": kind,
        "version": __version__,
        "schema": SCHEMA_VERSION,
        **parts,
    }
    blob = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def program_digest(program: Program) -> str:
    """Content digest of a program: instructions plus data image.

    Keys that include this digest are truly content-addressed — two
    builds of the same suite name with different input parameters (or a
    changed generator) never collide.  The digest is memoized on the
    program object because data images can hold tens of thousands of
    words.
    """
    cached = getattr(program, "_repro_digest", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for inst in program.instructions:
        hasher.update(str(inst).encode("utf-8"))
        hasher.update(b"\n")
    for addr, value in sorted(program.data.words.items()):
        hasher.update(f"{addr}:{value};".encode("ascii"))
    digest = hasher.hexdigest()
    program._repro_digest = digest
    return digest


@dataclass
class PerfCounters:
    """Per-stage wall-clock seconds and cache hit/miss counters.

    ``hits`` counts in-memory (same-process) cache hits, ``disk_hits``
    loads from the persistent artifact cache, and ``misses`` actual
    computations.  ``stage_seconds`` accumulates compute time only, so
    the report directly shows what caching saved.  ``instructions``
    counts simulated instructions per stage, so the report can show
    simulation throughput (MIPS) for the simulator-bound stages.
    """

    stage_seconds: Dict[str, float] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)
    disk_hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    instructions: Dict[str, int] = field(default_factory=dict)

    def add_time(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def add_instructions(self, stage: str, count: int) -> None:
        self.instructions[stage] = self.instructions.get(stage, 0) + count

    def hit(self, kind: str) -> None:
        self.hits[kind] = self.hits.get(kind, 0) + 1

    def disk_hit(self, kind: str) -> None:
        self.disk_hits[kind] = self.disk_hits.get(kind, 0) + 1

    def miss(self, kind: str) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + 1

    def snapshot(self) -> "PerfCounters":
        """An independent copy (for before/after deltas)."""
        return PerfCounters(
            stage_seconds=dict(self.stage_seconds),
            hits=dict(self.hits),
            disk_hits=dict(self.disk_hits),
            misses=dict(self.misses),
            instructions=dict(self.instructions),
        )

    def since(self, before: "PerfCounters") -> "PerfCounters":
        """The delta accumulated since ``before`` was snapshotted."""
        delta = PerfCounters()
        for name in (
            "stage_seconds",
            "hits",
            "disk_hits",
            "misses",
            "instructions",
        ):
            mine, theirs, out = (
                getattr(self, name),
                getattr(before, name),
                getattr(delta, name),
            )
            for key, value in mine.items():
                diff = value - theirs.get(key, 0)
                if diff:
                    out[key] = diff
        return delta

    def merge(self, other: "PerfCounters") -> None:
        """Accumulate another counter set (e.g. a worker's delta)."""
        for stage, seconds in other.stage_seconds.items():
            self.add_time(stage, seconds)
        for name in ("hits", "disk_hits", "misses", "instructions"):
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + value

    def computations(self) -> int:
        """Total cache misses (actual stage computations) across kinds."""
        return sum(self.misses.values())

    def render(self, title: str = "Harness performance") -> str:
        """Fixed-width report of stage times and cache effectiveness."""
        from repro.harness.report import render_perf

        return render_perf(self, title=title)

    def publish_metrics(self, registry) -> None:
        """Fold these counters into a metrics registry.

        PerfCounters stays the picklable accumulation vehicle (workers
        ship deltas; the executor merges); the registry is the single
        export surface.  Totals land under ``harness.cache.*``, the
        per-stage breakdown under ``harness.stage.<stage>.*``.
        """
        registry.counter("harness.cache.hits").inc(sum(self.hits.values()))
        registry.counter("harness.cache.disk_hits").inc(
            sum(self.disk_hits.values())
        )
        registry.counter("harness.cache.misses").inc(sum(self.misses.values()))
        for stage, seconds in self.stage_seconds.items():
            registry.gauge(f"harness.stage.{stage}.seconds").set(seconds)
        for stage, count in self.instructions.items():
            registry.counter(f"harness.stage.{stage}.instructions").inc(count)


class ArtifactCache:
    """On-disk content-addressed store for harness stage outputs.

    Args:
        root: cache directory; created lazily on first store.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()

    @classmethod
    def from_env(
        cls, environ: Optional[Dict[str, str]] = None
    ) -> Optional["ArtifactCache"]:
        """Build the cache the environment asks for.

        ``REPRO_CACHE_DIR`` names the root; unset falls back to
        ``~/.cache/repro``; the values ``off`` / ``0`` / ``none`` /
        ``disabled`` / empty disable persistence (returns ``None``).
        """
        environ = os.environ if environ is None else environ
        raw = environ.get("REPRO_CACHE_DIR")
        if raw is not None and raw.strip().lower() in _DISABLED_VALUES:
            return None
        if raw:
            return cls(raw)
        return cls(Path.home() / ".cache" / "repro")

    # -- paths ----------------------------------------------------------

    def key(self, kind: str, **parts) -> str:
        if kind not in _KIND_CODECS:
            raise KeyError(f"unknown artifact kind {kind!r}")
        return stable_key(kind, **parts)

    def path(self, kind: str, key: str) -> Path:
        ext = "pkl" if _KIND_CODECS[kind] == "pickle" else "json"
        return self.root / kind / key[:2] / f"{key}.{ext}"

    # -- storage --------------------------------------------------------

    def load(self, kind: str, key: str):
        """Return the stored payload for ``key`` or ``None``.

        JSON kinds return the decoded dict (callers apply their
        ``from_dict``); the pickle kind returns the object directly.  A
        corrupt or truncated entry (e.g. a killed writer predating the
        atomic-rename path) is treated as a miss, not an error.
        """
        target = self.path(kind, key)
        try:
            if _KIND_CODECS[kind] == "pickle":
                with target.open("rb") as handle:
                    return pickle.load(handle)
            return json.loads(target.read_text())
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt bytes make pickle raise far more than
            # UnpicklingError (ValueError, KeyError, AttributeError,
            # UnicodeDecodeError, ...); every decode failure is a miss.
            return None

    def store(self, kind: str, key: str, payload) -> None:
        """Atomically persist ``payload`` under ``key``.

        Writes to a private temporary file in the target directory then
        ``os.replace``s it into place, so concurrent writers racing on
        the same key (sweep worker processes, ``repro serve``'s thread
        pool) each leave a complete file and the last writer wins (they
        wrote identical bytes anyway — the key is content-addressed).
        """
        target = self.path(kind, key)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as handle:
                # mkstemp creates the file 0600; give artifacts the mode
                # a plain open() would, so a store shared between users
                # stays readable by them.
                os.fchmod(fd, 0o666 & ~_UMASK)
                if _KIND_CODECS[kind] == "pickle":
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                else:
                    handle.write(json.dumps(payload).encode())
            os.replace(tmp, target)
        finally:
            if tmp.exists():
                tmp.unlink()

    # -- maintenance ----------------------------------------------------

    def entry_count(self) -> Dict[str, int]:
        """Number of stored artifacts per kind."""
        counts = {}
        for kind in _KIND_CODECS:
            base = self.root / kind
            counts[kind] = (
                sum(1 for _ in base.glob("*/*")) if base.is_dir() else 0
            )
        return counts

    def size_bytes(self, kind: Optional[str] = None) -> int:
        """Total stored bytes, optionally restricted to one kind."""
        if kind is not None:
            if kind not in _KIND_CODECS:
                raise KeyError(f"unknown artifact kind {kind!r}")
            base = self.root / kind
            if not base.is_dir():
                return 0
            return sum(
                path.stat().st_size
                for path in base.rglob("*")
                if path.is_file()
            )
        if not self.root.is_dir():
            return 0
        return sum(
            path.stat().st_size
            for path in self.root.rglob("*")
            if path.is_file()
        )

    def publish_metrics(self, registry) -> None:
        """Set the cache-size gauges (``harness.cache.entries/bytes``)."""
        registry.gauge("harness.cache.entries").set(
            sum(self.entry_count().values())
        )
        registry.gauge("harness.cache.bytes").set(self.size_bytes())

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored artifacts; returns the number removed.

        With ``kind`` only that kind's entries are removed; an unknown
        kind raises ``KeyError`` rather than silently clearing nothing.
        """
        if kind is not None and kind not in _KIND_CODECS:
            raise KeyError(f"unknown artifact kind {kind!r}")
        kinds = _KIND_CODECS if kind is None else (kind,)
        removed = 0
        for kind in kinds:
            base = self.root / kind
            if not base.is_dir():
                continue
            for path in sorted(base.glob("*/*")):
                path.unlink()
                removed += 1
            for bucket in sorted(base.iterdir()):
                if bucket.is_dir() and not any(bucket.iterdir()):
                    bucket.rmdir()
        return removed
