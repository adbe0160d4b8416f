"""Process-safe, disk-persistent calibration cache.

Fleet simulation multiplies the runtime's calibration problem by the
population size: thousands of patient missions, fanned across worker
processes, all need the same small set of ``(app, segment signature,
operating point)`` quality/energy models.  Per-process ``lru_cache``
memos (the PR 2 design) recompute each model once *per worker*; this
module makes the unit of work once *per fleet* — or, since entries are
content-addressed, once per machine, ever.

Design, mirroring the campaign result store:

* entries are keyed by the SHA-256 content hash of their full input
  payload (:func:`repro.campaign.spec.content_hash`), so a cached value
  can never be served for different inputs and stale entries are merely
  unused, never wrong;
* one JSON file per entry, written to a temporary name and
  :func:`os.replace`'d into place, so readers only ever see complete
  entries;
* exactly-once computation across processes is enforced with a per-entry
  ``fcntl`` file lock: the first worker to need a model computes it
  while the others block, then read the fresh entry under the same lock;
* every computation appends one line to ``events.jsonl``, giving tests
  and benchmarks an auditable fleet-wide "calibrated exactly once"
  record.

The cache root defaults to ``benchmarks/results/cache`` (override with
``REPRO_CACHE_DIR``); ``REPRO_CACHE_DISABLE=1`` turns the disk layer off
(per-process memory caching only).  ``python -m repro cache`` exposes
:meth:`DiskCache.info`/:meth:`DiskCache.clear` from the command line.

Example:
    >>> import tempfile
    >>> cache = DiskCache(tempfile.mkdtemp())
    >>> cache.get_or_compute({"x": 1}, lambda: [1, 2])
    [1, 2]
    >>> cache.get_or_compute({"x": 1}, lambda: [9, 9])  # cached: not recomputed
    [1, 2]
    >>> cache.stats.computed, cache.stats.memory_hits
    (1, 1)
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import obs
from .campaign.spec import content_hash
from .errors import ReproError
from .journal import Journal, locked_append

__all__ = [
    "CacheStats",
    "DiskCache",
    "default_cache_root",
    "shared_cache",
    "computed_events",
    "event_stats",
]

#: Sentinel distinguishing "no entry" from a cached ``None``.
_MISSING = object()


def default_cache_root() -> Path:
    """Directory the shared calibration cache lives in.

    ``REPRO_CACHE_DIR`` overrides the default
    ``benchmarks/results/cache`` (relative to the working directory,
    beside the campaign stores).  ``~`` in the override expands to the
    user's home directory.
    """
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw:
        return Path(raw).expanduser()
    return Path("benchmarks") / "results" / "cache"


@dataclass
class CacheStats:
    """Per-process lookup counters of one :class:`DiskCache`.

    Attributes:
        memory_hits: lookups answered from this process's memory layer.
        disk_hits: lookups answered by reading an existing entry file
            (including entries another process computed while we waited
            on its lock).
        computed: lookups this process had to compute itself.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    computed: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups seen by this process."""
        return self.memory_hits + self.disk_hits + self.computed

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that avoided a fresh computation."""
        if not self.lookups:
            return 0.0
        return (self.memory_hits + self.disk_hits) / self.lookups

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe counter snapshot."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "computed": self.computed,
            "hit_rate": self.hit_rate,
        }


class DiskCache:
    """Content-addressed key/value cache with a disk persistence layer.

    Args:
        root: directory entries are stored in (default:
            :func:`default_cache_root`).
        persistent: when false, only the in-process memory layer is used
            — the shape tests use to isolate cache behaviour, and what
            ``REPRO_CACHE_DISABLE=1`` selects for the shared cache.

    Values must be JSON-serialisable; callers that cache tuples convert
    on the way out (JSON round-trips them as lists).
    """

    def __init__(
        self, root: Path | str | None = None, persistent: bool = True
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.persistent = persistent
        self.stats = CacheStats()
        self._memory: dict[str, Any] = {}
        self._lock = threading.Lock()

    # -- paths -------------------------------------------------------------

    def _entry_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    @property
    def events_path(self) -> Path:
        """The append-only log of fleet-wide cache computations."""
        return self.root / "events.jsonl"

    # -- the core protocol -------------------------------------------------

    def get_or_compute(
        self, payload: dict[str, Any], compute: Callable[[], Any]
    ) -> Any:
        """Return the cached value for ``payload``, computing it at most
        once across every process sharing this cache root.

        Lookup order: this process's memory layer, then the entry file,
        then — under an exclusive per-entry file lock — a re-check of the
        entry file (another process may have just written it) and
        finally ``compute()``.
        """
        digest = content_hash(payload)
        with self._lock:
            if digest in self._memory:
                self.stats.memory_hits += 1
                obs.counter("cache.memory_hit")
                return self._memory[digest]
        if not self.persistent:
            value = compute()
            self.stats.computed += 1
            obs.counter("cache.computed")
            with self._lock:
                self._memory[digest] = value
            return value

        value = self._read_entry(digest)
        if value is not _MISSING:
            self.stats.disk_hits += 1
            obs.counter("cache.disk_hit")
            self._append_event("hit", digest)
            with self._lock:
                self._memory[digest] = value
            return value

        value = self._locked_compute(digest, payload, compute)
        with self._lock:
            self._memory[digest] = value
        return value

    def _locked_compute(
        self, digest: str, payload: dict[str, Any], compute: Callable[[], Any]
    ) -> Any:
        """Compute ``digest``'s value under its exclusive file lock."""
        import fcntl

        self.root.mkdir(parents=True, exist_ok=True)
        lock_path = self.root / f"{digest}.lock"
        with open(lock_path, "w", encoding="utf-8") as lock_file:
            waited = time.perf_counter() if obs.enabled() else 0.0
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            if obs.enabled():
                obs.observe(
                    "cache.lock_wait_s", time.perf_counter() - waited
                )
            try:
                # Another process may have computed the entry while this
                # one waited on the lock.
                value = self._read_entry(digest)
                if value is not _MISSING:
                    self.stats.disk_hits += 1
                    obs.counter("cache.disk_hit")
                    self._append_event("hit", digest)
                    return value
                value = compute()
                self._write_entry(digest, payload, value)
                self._append_event("computed", digest)
                self.stats.computed += 1
                obs.counter("cache.computed")
                return value
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)

    def _read_entry(self, digest: str) -> Any:
        path = self._entry_path(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return _MISSING
        try:
            return json.loads(text)["value"]
        except (json.JSONDecodeError, KeyError, TypeError):
            # A corrupt entry (e.g. a crashed writer on a filesystem
            # without atomic replace) is treated as absent and rewritten.
            return _MISSING

    def _write_entry(self, digest: str, payload: dict, value: Any) -> None:
        entry = {"key": payload, "value": value}
        try:
            text = json.dumps(entry, sort_keys=True)
        except TypeError as exc:
            raise ReproError(
                f"cache value for {payload!r} is not JSON-serialisable: {exc}"
            ) from exc
        tmp = self._entry_path(digest).with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(text + "\n", encoding="utf-8")
        os.replace(tmp, self._entry_path(digest))

    def _append_event(self, kind: str, digest: str | None = None) -> None:
        """Record one cache action in the fleet-wide event log.

        ``kind`` is ``"computed"`` (written only under the entry's
        exclusive lock, so per-entry counts are an exact "how many
        times was this computed" audit), ``"hit"`` (a disk-layer read;
        at most one per entry per process — the memory layer absorbs
        repeats), or ``"clear"`` (an eviction of the whole cache).
        """
        record: dict[str, Any] = {"event": kind, "pid": os.getpid()}
        if digest is not None:
            record["hash"] = digest
        locked_append(
            self.events_path, (json.dumps(record) + "\n").encode("utf-8")
        )

    # -- maintenance -------------------------------------------------------

    def info(self) -> dict[str, Any]:
        """Cache diagnostics: root, entry count/bytes, process counters."""
        entries = 0
        size_bytes = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                entries += 1
                size_bytes += path.stat().st_size
        return {
            "root": str(self.root),
            "persistent": self.persistent,
            "entries": entries,
            "size_bytes": size_bytes,
            "process": self.stats.to_dict(),
        }

    def clear(self) -> int:
        """Delete every entry and event record; returns the number of
        entries removed.  The per-process memory layer is cleared too.

        Per-entry ``.lock`` files are deliberately left in place: a
        worker may be blocked on one right now, and unlinking it would
        hand a second worker a fresh lock inode — two computations of
        the same entry, breaking the exactly-once audit.  The lock
        files are empty; leaving them costs directory entries only.
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            self.events_path.unlink(missing_ok=True)
            # Start the fresh log with the eviction itself, so
            # event_stats() can report "cleared N times" afterwards.
            self._append_event("clear")
            obs.counter("cache.cleared_entries", removed)
        with self._lock:
            self._memory.clear()
        self.stats = CacheStats()
        return removed


def _read_events(root: Path | str | None) -> list[dict]:
    """Parsed cache event-log records, in append order.

    Malformed lines (torn tail of a crashed writer) are tolerated and
    quarantined — skipped by the parse, logged, and preserved in
    ``events.jsonl.quarantine`` — never fatal.  Records written before
    the log carried an ``event`` key are computations — the only kind
    the log recorded then.
    """
    root = Path(root) if root is not None else default_cache_root()
    return Journal(
        root / "events.jsonl", lambda record: isinstance(record, dict)
    ).read()


def computed_events(root: Path | str | None = None) -> list[str]:
    """Entry hashes from the event log, one per computation, in order.

    The fleet-wide exactly-once guarantee is checkable as "this list has
    no duplicates".  Hit/clear events in the log are not computations
    and are excluded.
    """
    return [
        record["hash"]
        for record in _read_events(root)
        if record.get("event", "computed") == "computed"
        and "hash" in record
    ]


def event_stats(root: Path | str | None = None) -> dict[str, Any]:
    """Fleet-wide hit/miss/evict statistics from the cache event log.

    Unlike :attr:`DiskCache.stats` (this process's counters), these
    cover every process that ever touched the cache root since its
    last clear: computations (misses), disk hits, distinct entries,
    recomputations of the same entry (lock races or post-clear), clear
    events, and the disk-level hit rate.
    """
    computed: list[str] = []
    hits = 0
    clears = 0
    for record in _read_events(root):
        kind = record.get("event", "computed")
        if kind == "computed" and "hash" in record:
            computed.append(record["hash"])
        elif kind == "hit":
            hits += 1
        elif kind == "clear":
            clears += 1
    lookups = len(computed) + hits
    return {
        "computed": len(computed),
        "disk_hits": hits,
        "unique_entries": len(set(computed)),
        "recomputed": len(computed) - len(set(computed)),
        "clears": clears,
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }


#: The process-wide shared cache instance (lazily created; re-resolved
#: when the configured root changes, so tests can repoint it via env).
_SHARED: DiskCache | None = None


def shared_cache() -> DiskCache:
    """The process's shared calibration cache.

    Resolves ``REPRO_CACHE_DIR``/``REPRO_CACHE_DISABLE`` on every call:
    if either changed since the last call, a fresh instance (with fresh
    counters) is returned, so test isolation needs nothing beyond
    setting the environment.
    """
    global _SHARED
    root = default_cache_root()
    persistent = os.environ.get("REPRO_CACHE_DISABLE", "") not in ("1", "true")
    if (
        _SHARED is None
        or _SHARED.root != root
        or _SHARED.persistent != persistent
    ):
        _SHARED = DiskCache(root, persistent=persistent)
    return _SHARED
