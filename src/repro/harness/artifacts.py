"""Persistent, content-addressed artifact cache for the harness.

Every evaluation artifact (Tables 1/2, Figures 4-8, the ablations) fans
out over 10 workloads x many knob settings, but the expensive stages —
functional tracing, baseline timing, p-thread selection — depend only
on a small key: (workload program content, input, hierarchy, machine,
constraints, package source).  :class:`ArtifactCache` stores those
stage outputs on disk under a stable hash of that key, so repeated
bench sessions (and the worker processes of a parallel sweep) reuse
each other's work instead of re-simulating from scratch.

Layout: ``<root>/<kind>/<aa>/<key>.<ext>`` where ``<aa>`` is the first
two hex digits of the key (keeps directories small), ``kind`` is one of
``trace`` / ``baseline`` / ``perfect_l2`` / ``selection``, and the
extension is ``.json`` for the dict-codec kinds or ``.pkl`` for
selections (whose p-thread bodies are instruction graphs; pickle is the
pragmatic codec).  Every key folds in :func:`source_digest`, so an
entry written by other code — a changed codec, slicer or timing model —
is never served.

The root is ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``;
setting ``REPRO_CACHE_DIR`` to ``off`` / ``0`` / the empty string
disables persistence (see :meth:`ArtifactCache.from_env`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.isa.program import Program

#: Cache kinds and their storage codec.
_KIND_CODECS = {
    "trace": "json",
    "baseline": "json",
    "perfect_l2": "json",
    "selection": "pickle",
}

#: One stored entry, relative to its kind directory: ``<aa>/<key>.<ext>``.
_ENTRY_PATH = re.compile(r"[0-9a-f]{2}/[0-9a-f]{64}\.(json|pkl)")

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


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of the ``repro`` package source, computed once per process.

    Hashes every ``*.py`` file under the package, by sorted relative
    path and bytes.  Folded into every :func:`stable_key`, so any edit
    to the code that produced an entry moves it to a new slot.  One
    whole-package digest rather than per-kind module lists: a list of
    producer modules can itself go stale.
    """
    root = Path(__file__).resolve().parent.parent
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
    )
    hasher = hashlib.sha256()
    for relative, path in files:
        data = path.read_bytes()
        hasher.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        hasher.update(data)
    return hasher.hexdigest()


def stable_key(kind: str, **parts) -> str:
    """A stable hex digest of a cache key description.

    The digest covers the artifact kind, the package source (see
    :func:`source_digest`), and every keyword part (dataclasses are
    canonicalized field by field), so any change to code,
    configuration, or workload identity lands in a different cache
    slot.
    """
    payload = {"kind": kind, "source": source_digest(), **parts}
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

    def _entries(self, kind: Optional[str] = None) -> List[Path]:
        """Stored entry files of ``kind``, or of every kind directory.

        Only files matching the store layout count, so stray files under
        the root are never reported or removed; kind directories a
        different build wrote (a retired kind) are included.
        """
        if kind is not None:
            bases = [self.root / kind]
        elif self.root.is_dir():
            bases = sorted(p for p in self.root.iterdir() if p.is_dir())
        else:
            bases = []
        return [
            path
            for base in bases
            if base.is_dir()
            for path in sorted(base.glob("*/*"))
            if _ENTRY_PATH.fullmatch(f"{path.parent.name}/{path.name}")
            and path.is_file()
        ]

    def entry_count(self) -> Dict[str, int]:
        """Number of stored artifacts per kind.

        Every current kind is listed; any other kind directory holding
        entries (a retired kind) is listed too, so the counts cover what
        :meth:`size_bytes` and :meth:`clear` see.
        """
        counts = dict.fromkeys(_KIND_CODECS, 0)
        for path in self._entries():
            kind = path.parent.parent.name
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def size_bytes(self, kind: Optional[str] = None) -> int:
        """Total stored bytes, optionally restricted to one kind."""
        return sum(path.stat().st_size for path in self._entries(kind))

    def publish_metrics(self, registry) -> None:
        """Set the cache-size gauges (``harness.cache.entries/bytes``).

        This walks and stats every stored file, so callers run it where
        a snapshot is taken, never per stage or per request.
        """
        registry.gauge("harness.cache.entries").set(
            sum(self.entry_count().values())
        )
        registry.gauge("harness.cache.bytes").set(self.size_bytes())

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored artifacts; returns the number removed.

        With ``kind`` only that kind's entries are removed; an unknown
        kind raises ``KeyError`` rather than silently clearing nothing.
        Without it, entries of every kind directory go, retired kinds
        included.  Files that do not match the store layout are left.
        """
        if kind is not None and kind not in _KIND_CODECS:
            raise KeyError(f"unknown artifact kind {kind!r}")
        entries = self._entries(kind)
        for path in entries:
            path.unlink()
        for bucket in sorted({path.parent for path in entries}):
            if not any(bucket.iterdir()):
                bucket.rmdir()
        return len(entries)
