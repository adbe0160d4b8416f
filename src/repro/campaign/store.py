"""On-disk campaign result store (JSON lines, append-only).

One store file per campaign, ``<root>/<campaign>.jsonl``, with one JSON
object per line::

    {"hash": "...", "kind": "montecarlo", "params": {...},
     "status": "ok", "result": {...}, "elapsed_s": 0.41}

The append-only discipline makes writes crash-safe: a torn final line
(a writer crashed mid-append) is tolerated and quarantined on load —
logged and copied to a ``<store>.quarantine`` side file, never fatal —
and the next append seals it with a newline before writing, so torn
debris can never merge with a fresh record.  Records are keyed
by the point's content hash (:meth:`CampaignPoint.content_hash`);
re-appending a hash supersedes the earlier record, so a store never needs
compaction to stay *correct* — :meth:`ResultStore.compact` exists to
reclaim the superseded lines' disk space, not to fix anything.  Only
``status == "ok"`` records count as completed — failed points are
retried on the next run.

Loads are memoized against the file's signature — (size, mtime_ns)
plus a CRC-32 fingerprint of the file's head and tail bytes: repeated
``load()``/``__len__``/``completed_hashes()`` calls between writes parse
the file once, which matters once fleet-scale campaigns hold thousands
of records.  The content fingerprint closes the staleness window a pure
(size, mtime) key has on filesystems with coarse mtime granularity,
where ``compact()`` (or another process's ``append_many`` plus
compaction) can replace the file with equal-size content inside one
mtime tick.

For write-concurrent deployments — many service workers appending into
one campaign — :class:`ShardedResultStore` spreads the same records
across N JSONL shard files inside a ``<campaign>.shards/`` directory,
routed by content-hash key.  It presents the exact
:class:`ResultStore` interface (``load``/``append_many``/``compact``/
resume semantics are unchanged, and a given record lands in exactly one
deterministic shard), so readers and the session layer cannot tell the
difference.  :meth:`ResultStore.for_campaign` picks the layout: an
existing shard directory always wins, and ``REPRO_STORE_SHARDS=N``
makes *new* stores sharded.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import zlib
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

from .. import obs
from ..errors import CampaignError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "ResultStore",
    "ShardedResultStore",
    "SHARDS_ENV",
    "default_store_root",
    "locked_append",
    "quarantine_torn_lines",
    "read_jsonl",
]

#: Environment knob: shard count for *newly created* campaign stores
#: resolved through :meth:`ResultStore.for_campaign` (0/unset = plain).
SHARDS_ENV = "REPRO_STORE_SHARDS"


#: Held by every :func:`locked_append`/:func:`read_jsonl` for the whole
#: open -> flock -> I/O -> close, and by ``fork`` (see below).
_FILE_LOCK = threading.Lock()

# A child forked while another thread sits inside a locked append would
# inherit the flock'd descriptor and hold the lock until it exits (a
# long-lived worker: forever).  Forking therefore waits for in-flight
# appends and reads to close their descriptors.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_FILE_LOCK.acquire,
        after_in_parent=_FILE_LOCK.release,
        after_in_child=_FILE_LOCK.release,
    )


def _flock(handle, exclusive: bool) -> None:
    """Best-effort ``flock``: non-POSIX platforms have no fcntl, and
    some network filesystems refuse flock — I/O then stays unlocked."""
    if fcntl is None:  # pragma: no cover
        return
    try:
        fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
    except OSError:  # pragma: no cover
        pass


def locked_append(path: Path, payload: bytes) -> None:
    """Append ``payload`` under an exclusive lock, sealing torn tails.

    The crash-consistency primitive shared by the result store, the
    service job journal, the run registry and the cache event log: one
    ``open``/``flock``/``write`` per call, and if the previous writer
    died mid-line the torn tail is sealed with a newline first so the
    debris stays an isolated (quarantinable) line instead of merging
    with the first fresh record.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    # a+b (read + append) so the torn-tail check can inspect the
    # current last byte through the same locked descriptor.
    with _FILE_LOCK, path.open("a+b") as handle:
        _flock(handle, exclusive=True)
        size = os.fstat(handle.fileno()).st_size
        if size and os.pread(handle.fileno(), 1, size - 1) != b"\n":
            handle.write(b"\n")
        handle.write(payload)


def read_jsonl(path: Path, valid: Callable[[Any], bool]) -> Iterator[Any]:
    """Parse a :func:`locked_append` file, one item per non-blank line.

    Yields each line's payload in file order, or ``None`` for a
    malformed line — one that does not parse, or whose payload fails
    ``valid``.  Malformed lines are quarantined through
    :func:`quarantine_torn_lines` once the iteration ends.  The file is
    read under a shared lock, so an append still in progress is never
    mistaken for a torn line.  An absent file yields nothing.
    """
    try:
        with _FILE_LOCK, path.open("r", encoding="utf-8") as handle:
            _flock(handle, exclusive=False)
            lines = handle.readlines()
    except FileNotFoundError:
        return
    torn: list[str] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            payload = None
        if payload is None or not valid(payload):
            torn.append(line)
            payload = None
        yield payload
    if torn:
        quarantine_torn_lines(path, torn)


_LOG = logging.getLogger(__name__)


def quarantine_torn_lines(path: Path, lines: list[str]) -> int:
    """Preserve malformed JSONL lines in a ``.quarantine`` side file.

    Crash-consistency contract shared by the result store and the cache
    event log: a malformed line (usually the torn tail of a writer that
    died mid-append) is *tolerated* — skipped by the reader, never
    fatal — and *quarantined* — logged and appended to
    ``<path>.quarantine`` so the debris stays inspectable after a
    :meth:`ResultStore.compact` or log rotation drops it from the live
    file.  Lines already quarantined are not duplicated.  Returns the
    number of newly quarantined lines; quarantine-file write errors are
    swallowed (the side file is best-effort, the load must succeed).
    """
    if not lines:
        return 0
    side = path.with_suffix(path.suffix + ".quarantine")
    try:
        known = set(
            side.read_text(encoding="utf-8").splitlines()
        ) if side.exists() else set()
        fresh = [line for line in lines if line not in known]
        if fresh:
            with side.open("a", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in fresh))
    except OSError:  # pragma: no cover - best-effort side file
        fresh = lines
    _LOG.warning(
        "%s: quarantined %d malformed line(s) (torn tail of an "
        "interrupted writer?); see %s",
        path, len(lines), side,
    )
    if obs.enabled():
        obs.counter("store.quarantined_lines", len(lines))
    return len(fresh)

#: Valid terminal states of a stored point.
_STATUSES = ("ok", "failed")

#: Bytes of the file's head and tail hashed into the load-memo signature.
_FINGERPRINT_BYTES = 4096


def default_store_root() -> Path:
    """Directory campaign stores live in.

    ``REPRO_CAMPAIGN_DIR`` overrides the default
    ``benchmarks/results/campaigns`` (relative to the working directory),
    mirroring the benchmark harness's results layout.  ``~`` in the
    override expands to the user's home directory.
    """
    raw = os.environ.get("REPRO_CAMPAIGN_DIR")
    if raw:
        return Path(raw).expanduser()
    return Path("benchmarks") / "results" / "campaigns"


class ResultStore:
    """Append-only JSONL store of one campaign's point results."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        # load() memo: (file signature, parsed records, raw line count).
        self._memo: tuple[tuple, dict[str, dict], int] | None = None
        #: Number of full file parses (diagnostic; exercised by tests).
        self.n_parses = 0

    @classmethod
    def for_campaign(
        cls, name: str, root: Path | str | None = None
    ) -> "ResultStore":
        """The store for campaign ``name`` under ``root`` (or the default).

        Layout-aware: an existing ``<name>.shards/`` directory resolves
        to a :class:`ShardedResultStore` regardless of configuration, so
        every reader of a sharded campaign agrees on the layout.  When
        neither layout exists yet, ``REPRO_STORE_SHARDS=N`` (N > 1, the
        service daemon's default environment) creates a sharded store;
        otherwise the historical single-file layout is used.
        """
        root = Path(root) if root is not None else default_store_root()
        shard_dir = root / f"{name}.shards"
        plain = root / f"{name}.jsonl"
        if shard_dir.is_dir():
            return ShardedResultStore(shard_dir)
        if not plain.exists():
            raw = os.environ.get(SHARDS_ENV, "")
            try:
                n_shards = int(raw) if raw else 0
            except ValueError:
                raise CampaignError(
                    f"{SHARDS_ENV} must be an integer, got {raw!r}"
                ) from None
            if n_shards > 1:
                return ShardedResultStore.create(shard_dir, n_shards)
        return ResultStore(plain)

    def _signature(self) -> tuple | None:
        """The file's identity, or None when absent.

        (size, mtime_ns, head+tail CRC-32): the content fingerprint
        catches a rewrite that preserves both size and mtime — possible
        within one mtime tick on coarse-granularity filesystems after
        :meth:`compact` or a concurrent writer's append + compaction —
        which a pure stat-based key would mistake for the memoized
        content.  Appends always change the tail; compaction reorders
        or drops lines, changing head or tail bytes.
        """
        try:
            stat = self.path.stat()
        except OSError:
            return None
        try:
            with self.path.open("rb") as handle:
                head = handle.read(_FINGERPRINT_BYTES)
                if stat.st_size > 2 * _FINGERPRINT_BYTES:
                    handle.seek(stat.st_size - _FINGERPRINT_BYTES)
                    tail = handle.read(_FINGERPRINT_BYTES)
                else:
                    tail = handle.read()
        except OSError:
            return None
        return (
            stat.st_size,
            stat.st_mtime_ns,
            zlib.crc32(tail, zlib.crc32(head)),
        )

    def load(self) -> dict[str, dict]:
        """Read all records, keyed by point hash (later lines win).

        Malformed lines (e.g. a torn tail from an interrupted run) are
        tolerated and quarantined: skipped by the parse, logged, and
        preserved in ``<store>.quarantine`` — a crashed run never makes
        its store unreadable.  An absent file is an empty store.
        Duplicate lines from resumed or ``resume=False`` runs collapse
        here — last write wins.  The parse is memoized against the
        file's (size, mtime) signature; the returned mapping is a fresh
        dict each call, but the record dicts themselves are shared —
        treat them as read-only.
        """
        signature = self._signature()
        if signature is None:
            return {}
        if self._memo is not None and self._memo[0] == signature:
            return dict(self._memo[1])
        records: dict[str, dict] = {}
        n_lines = 0
        for record in read_jsonl(
            self.path,
            lambda record: isinstance(record, dict) and "hash" in record,
        ):
            n_lines += 1
            if record is not None:
                records[record["hash"]] = record
        self.n_parses += 1
        self._memo = (signature, records, n_lines)
        return dict(records)

    def completed_hashes(self) -> set[str]:
        """Hashes of points with a successful stored result."""
        return {
            h for h, rec in self.load().items() if rec.get("status") == "ok"
        }

    def append(self, record: dict) -> None:
        """Persist one point record (creates the store on first write)."""
        self.append_many([record])

    def append_many(self, records: list[dict]) -> None:
        """Persist several point records under one open + file lock.

        The campaign runner flushes every point that completed in one
        pool tick through this path: the records are validated up
        front, serialised, and written in a single locked append — one
        ``open``/``flock``/``write`` per tick instead of per point,
        while the JSONL format and content-hash keys stay exactly as
        :meth:`append` writes them.  The exclusive ``fcntl`` lock keeps
        concurrent appenders (e.g. two campaigns sharing a store file)
        line-atomic even when a tick's payload exceeds the pipe-atomic
        write size.
        """
        if not records:
            return
        for record in records:
            status = record.get("status")
            if status not in _STATUSES:
                raise CampaignError(
                    f"record status must be one of {_STATUSES}, got {status!r}"
                )
            if "hash" not in record:
                raise CampaignError("record must carry the point hash")
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode("utf-8")
        started = time.perf_counter() if obs.enabled() else 0.0
        locked_append(self.path, payload)
        if obs.enabled():
            obs.observe("store.append_s", time.perf_counter() - started)
            obs.counter("store.records_appended", len(records))
        # The next load() re-stats the file; dropping the memo eagerly
        # also covers filesystems with coarse mtime resolution.
        self._memo = None

    def compact(self) -> int:
        """Rewrite the store with one line per hash (last write wins).

        Long-lived stores accumulate superseded lines — every
        ``resume=False`` re-run appends a fresh record per point.  The
        rewrite goes through a temporary file and an atomic
        :func:`os.replace`, so a crash mid-compaction leaves the
        original store untouched.  Returns the number of superseded (or
        malformed) lines dropped; an absent store is a no-op.
        """
        records = self.load()
        if self._memo is None:
            return 0
        n_lines = self._memo[2]
        dropped = n_lines - len(records)
        if dropped <= 0:
            return 0
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with tmp.open("w", encoding="utf-8") as handle:
            for record in records.values():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        self._memo = None
        return dropped

    def __len__(self) -> int:
        return len(self.load())


#: Name of the shard-layout metadata file inside a ``.shards`` directory.
_SHARDS_META = "shards.json"


class ShardedResultStore(ResultStore):
    """One campaign's results spread across N content-hash-routed shards.

    The store is a directory (``<root>/<campaign>.shards/``) holding a
    ``shards.json`` layout descriptor plus ``shard-00.jsonl`` ...
    ``shard-NN.jsonl`` files, each an ordinary :class:`ResultStore`.  A
    record's shard is a pure function of its content hash, so every
    writer — concurrent service workers included — agrees where a
    record lives, resume/dedup semantics are per-record identical to
    the single-file layout, and two appends of the same point can never
    land in different shards.  The public interface is exactly
    :class:`ResultStore`: ``load`` merges the shards, ``append_many``
    groups records by shard (one locked append per touched shard), and
    ``compact`` compacts each shard in place.
    """

    def __init__(self, path: Path | str) -> None:
        super().__init__(path)
        meta_path = self.path / _SHARDS_META
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            n_shards = int(meta["shards"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CampaignError(
                f"{self.path} is not a sharded result store: "
                f"unreadable {_SHARDS_META} ({exc})"
            ) from exc
        if n_shards < 1:
            raise CampaignError(
                f"{self.path}: shard count must be >= 1, got {n_shards}"
            )
        self.n_shards = n_shards
        self.shards = [
            ResultStore(self.path / f"shard-{index:02d}.jsonl")
            for index in range(n_shards)
        ]

    @classmethod
    def create(
        cls, path: Path | str, n_shards: int
    ) -> "ShardedResultStore":
        """Initialise (or re-open) a shard directory for ``n_shards``.

        Idempotent: an existing layout descriptor wins — the store's
        shard count is fixed at creation, because re-routing records
        would orphan everything already written.
        """
        path = Path(path)
        meta_path = path / _SHARDS_META
        if not meta_path.is_file():
            if n_shards < 1:
                raise CampaignError(
                    f"shard count must be >= 1, got {n_shards}"
                )
            path.mkdir(parents=True, exist_ok=True)
            tmp = meta_path.with_suffix(".tmp")
            tmp.write_text(
                json.dumps({"shards": n_shards, "version": 1}) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, meta_path)
        return cls(path)

    def shard_for(self, point_hash: str) -> ResultStore:
        """The shard a record with this content hash belongs to."""
        return self.shards[self._route(point_hash)]

    def _route(self, point_hash: str) -> int:
        try:
            return int(point_hash[:8], 16) % self.n_shards
        except ValueError:
            # Non-hex keys (hand-written records) still route
            # deterministically via the CRC of the full key.
            return zlib.crc32(point_hash.encode("utf-8")) % self.n_shards

    def load(self) -> dict[str, dict]:
        """Merged view of every shard (each hash lives in one shard)."""
        records: dict[str, dict] = {}
        for shard in self.shards:
            records.update(shard.load())
        return records

    def append_many(self, records: list[dict]) -> None:
        """Route records to their shards; one locked append per shard."""
        if not records:
            return
        by_shard: dict[int, list[dict]] = {}
        for record in records:
            if "hash" not in record:
                raise CampaignError("record must carry the point hash")
            by_shard.setdefault(self._route(record["hash"]), []).append(
                record
            )
        for index in sorted(by_shard):
            self.shards[index].append_many(by_shard[index])

    def compact(self) -> int:
        """Compact every shard; returns total superseded lines dropped."""
        return sum(shard.compact() for shard in self.shards)

    @property
    def n_parses(self) -> int:  # type: ignore[override]
        """Total full-file parses across the shards (diagnostic)."""
        return sum(shard.n_parses for shard in self.shards)

    @n_parses.setter
    def n_parses(self, value: int) -> None:
        # The base-class __init__ assigns 0; shard counters are
        # authoritative, so the assignment is accepted and ignored.
        pass
