"""On-disk campaign result store (JSON lines, append-only).

One store file per campaign, ``<root>/<campaign>.jsonl``, with one JSON
object per line::

    {"hash": "...", "kind": "montecarlo", "params": {...},
     "status": "ok", "result": {...}, "elapsed_s": 0.41}

The file is a :class:`repro.journal.Journal` under the quarantine
torn-line policy, folded by point content hash
(:meth:`CampaignPoint.content_hash`): a re-appended hash supersedes the
earlier record, so a store never needs compaction to stay *correct* —
:meth:`ResultStore.compact` reclaims the superseded lines' disk space.
Only ``status == "ok"`` records count as completed — failed points are
retried on the next run.  A store parses only the bytes appended since
its last ``load()``.

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
import os
import time
import zlib
from pathlib import Path

from .. import obs
from ..errors import CampaignError
from ..journal import Journal

__all__ = [
    "ResultStore",
    "ShardedResultStore",
    "SHARDS_ENV",
    "default_store_root",
]

#: Environment knob: shard count for *newly created* campaign stores
#: resolved through :meth:`ResultStore.for_campaign` (0/unset = plain).
SHARDS_ENV = "REPRO_STORE_SHARDS"


#: Valid terminal states of a stored point.
_STATUSES = ("ok", "failed")


def _valid_record(record) -> bool:
    return isinstance(record, dict) and "hash" in record


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
        self._journal = Journal(self.path, _valid_record, key="hash")

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

    @property
    def n_parses(self) -> int:
        """Reads that parsed new bytes (diagnostic; exercised by tests)."""
        return self._journal.n_parses

    def load(self) -> dict[str, dict]:
        """Read all records, keyed by point hash (later lines win).

        Malformed lines (e.g. a torn tail from an interrupted run) are
        quarantined, never fatal.  An absent file is an empty store.
        The returned mapping is a fresh dict each call, but the record
        dicts themselves are shared — treat them as read-only.
        """
        quarantined = self._journal.quarantined
        records = self._journal.load()
        if obs.enabled() and self._journal.quarantined > quarantined:
            obs.counter(
                "store.quarantined_lines",
                self._journal.quarantined - quarantined,
            )
        return records

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
        ``open``/``flock``/``write`` per tick instead of per point.
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
        started = time.perf_counter() if obs.enabled() else 0.0
        self._journal.append(records)
        if obs.enabled():
            obs.observe("store.append_s", time.perf_counter() - started)
            obs.counter("store.records_appended", len(records))

    def compact(self) -> int:
        """Rewrite the store with one line per hash (last write wins).

        Long-lived stores accumulate superseded lines — every
        ``resume=False`` re-run appends a fresh record per point.  The
        rewrite is atomic and no concurrent append is lost.  Returns
        the number of superseded (or malformed) lines dropped; an
        absent store is a no-op.
        """
        return self._journal.compact()

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
    def n_parses(self) -> int:
        """Reads that parsed new bytes, across the shards (diagnostic)."""
        return sum(shard.n_parses for shard in self.shards)
