"""Append-only JSONL journals: locked appends, incremental folds, compaction.

Every line-per-record file of the package goes through here: the result
store, the job journal, the run registry, the cache event log, the
bench history and the trace sinks.  An append seals a torn tail (a
writer died mid-line) with a newline first.  A :class:`Journal` parses
only the bytes appended since its last read and starts over from byte 0
when the file was replaced, truncated or rewritten in place.  Torn
lines follow one of two policies: :data:`QUARANTINE` (skip, log, copy to
``<file>.quarantine``) or :data:`RAISE` (:class:`TornLineError` naming
the line).  This module imports nothing else from the package.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "QUARANTINE",
    "RAISE",
    "Journal",
    "TornLineError",
    "locked_append",
    "quarantine_torn_lines",
]

#: Torn-line policies.  Quarantine reads hold a shared lock, so an
#: unterminated tail is a dead writer's debris; raise reads hold such a
#: tail back until its newline arrives, unless the read is ``final``.
QUARANTINE = "quarantine"
RAISE = "raise"

#: Head and tail bytes a reader keeps to recognise the file it read.
_WINDOW = 4096

#: Held for every open -> flock -> I/O -> close, and by ``fork``: a
#: child forked while another thread holds a flock'd descriptor would
#: inherit it and hold the lock for its lifetime.
_FILE_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_FILE_LOCK.acquire,
        after_in_parent=_FILE_LOCK.release,
        after_in_child=_FILE_LOCK.release,
    )

_LOG = logging.getLogger(__name__)


class TornLineError(ValueError):
    """A malformed line in a :data:`RAISE` journal (``path:line: why``)."""


def _open_locked(path: Path, mode: str, exclusive: bool):
    """Open and (best-effort) flock ``path``; returns handle and fstat.

    Retries until the locked descriptor is the file the path names: a
    compaction may have replaced it meanwhile.  The caller holds
    ``_FILE_LOCK``.
    """
    while True:
        handle = open(path, mode)
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(
                        handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
                    )
                except OSError:  # pragma: no cover
                    pass
            opened = os.fstat(handle.fileno())
            current = os.stat(path)
        except FileNotFoundError:
            handle.close()
            continue
        except BaseException:
            handle.close()
            raise
        if (opened.st_dev, opened.st_ino) == (current.st_dev, current.st_ino):
            return handle, opened
        handle.close()


def locked_append(path: Path, payload: bytes) -> None:
    """Append ``payload`` under an exclusive lock, sealing torn tails."""
    with _FILE_LOCK:
        try:
            # a+b: the seal check reads the last byte through the same
            # locked descriptor.
            handle, stat = _open_locked(path, "a+b", exclusive=True)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, stat = _open_locked(path, "a+b", exclusive=True)
        with handle:
            if stat.st_size and os.pread(
                handle.fileno(), 1, stat.st_size - 1
            ) != b"\n":
                handle.write(b"\n")
            handle.write(payload)


def quarantine_torn_lines(path: Path, lines: list[str]) -> int:
    """Copy malformed lines (not already there) to ``<path>.quarantine``.

    Returns the number newly quarantined; side file errors are
    swallowed, since the read must succeed.
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
    return len(fresh)


def _replace(previous: dict | None, record: dict) -> dict:
    return record


def _encode(records: Iterable[dict]) -> bytes:
    return "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    ).encode("utf-8")


class Journal:
    """A thread-safe incremental reader (and appender) of one journal.

    ``valid(record)`` says whether a parsed line is usable (or raises
    ``ValueError`` saying why not).  With a ``key``, records fold into
    a per-key state through ``merge(previous or None, record)``.  A
    long-lived instance keeps its fold, so each read costs O(new bytes).
    """

    def __init__(
        self,
        path: Path | str,
        valid: Callable[[Any], bool],
        key: str | None = None,
        merge: Callable[[dict | None, dict], dict] = _replace,
        torn: str = QUARANTINE,
    ) -> None:
        self.path = Path(path)
        self.valid = valid
        self.key = key
        self.merge = merge
        self.torn = torn
        #: Reads that parsed new bytes, the bytes they parsed, and the
        #: lines they quarantined.
        self.n_parses = self.parsed_bytes = self.quarantined = 0
        self._lock = threading.Lock()
        self._reset(None)

    def append(self, records: Iterable[dict]) -> None:
        """Append records as sorted-key JSON lines, in one locked write."""
        locked_append(self.path, _encode(records))

    def read(self, final: bool = False) -> list[Any]:
        """Parse and fold the new bytes; returns their valid records
        (every record, after a reset).  ``final`` parses an unterminated
        last line of a :data:`RAISE` journal instead of holding it back.
        """
        with self._lock:
            with _FILE_LOCK:
                try:
                    handle, stat = _open_locked(self.path, "rb", False)
                except FileNotFoundError:
                    self._reset(None)
                    return []
                with handle:
                    chunk = self._scan(handle.fileno(), stat, final)
            return self._fold(chunk)

    def load(self) -> dict[Any, dict]:
        """A copy of the fold after reading the new bytes."""
        self.read()
        with self._lock:
            return dict(self._state)

    def get(self, key: Any) -> dict | None:
        """One key's folded record after reading the new bytes."""
        self.read()
        return self._state.get(key)

    def compact(self) -> int:
        """Rewrite the file as one line per key; returns lines dropped.

        The exclusive lock is held from the fold to the atomic replace,
        so no concurrent append is lost.
        """
        with self._lock, _FILE_LOCK:
            try:
                handle, stat = _open_locked(self.path, "rb", True)
            except FileNotFoundError:
                return 0
            with handle:
                self._fold(self._scan(handle.fileno(), stat, final=True))
                dropped = self._n_lines - len(self._state)
                if dropped:
                    tmp = self.path.with_suffix(self.path.suffix + ".compact")
                    tmp.write_bytes(_encode(self._state.values()))
                    os.replace(tmp, self.path)
            return dropped

    # -- internals, called with self._lock held ----------------------------

    def _reset(self, file: tuple[int, int] | None) -> None:
        self._file = file
        # Non-blank lines read so far count torn ones too: compaction
        # drops those along with the superseded records.
        self._offset = self._lineno = self._n_lines = 0
        self._head = self._tail = b""
        self._state: dict[Any, dict] = {}

    def _scan(self, fd: int, stat: os.stat_result, final: bool) -> bytes:
        """The unread bytes; resets first unless the inode, the size and
        the kept head and tail bytes show the file is the one read."""
        file = (stat.st_dev, stat.st_ino)
        start = self._offset - len(self._tail)
        data = None
        if file == self._file and stat.st_size >= self._offset:
            data = os.pread(fd, stat.st_size - start, start)
            if not data.startswith(self._tail) or (
                start and os.pread(fd, len(self._head), 0) != self._head
            ):
                data = None
        if data is None:
            self._reset(file)
            data = os.pread(fd, stat.st_size, 0)
        chunk = data[len(self._tail):]
        if self.torn == RAISE and not final:
            chunk = chunk[: chunk.rfind(b"\n") + 1]
        if chunk:
            self._offset += len(chunk)
            if len(self._head) < _WINDOW:
                self._head = (self._head + chunk[:_WINDOW])[:_WINDOW]
            self._tail = (self._tail + chunk[-_WINDOW:])[-_WINDOW:]
        return chunk

    def _fold(self, chunk: bytes) -> list[Any]:
        if not chunk:
            return []
        self.n_parses += 1
        self.parsed_bytes += len(chunk)
        records: list[Any] = []
        torn: list[str] = []
        for raw in chunk.splitlines():
            self._lineno += 1
            if not raw.strip():
                continue
            self._n_lines += 1
            try:
                record = json.loads(raw)
                if not self.valid(record):
                    raise ValueError("invalid record")
            except ValueError as exc:
                if self.torn == RAISE:
                    reason = str(exc)
                    if isinstance(exc, json.JSONDecodeError):
                        reason = f"not valid JSON: {reason}"
                    raise TornLineError(
                        f"{self.path}:{self._lineno}: {reason}"
                    ) from exc
                torn.append(raw.decode("utf-8", errors="replace").strip())
                continue
            records.append(record)
        if torn:
            self.quarantined += len(torn)
            quarantine_torn_lines(self.path, torn)
        if self.key is not None:
            for record in records:
                key = record[self.key]
                self._state[key] = self.merge(self._state.get(key), record)
        return records
