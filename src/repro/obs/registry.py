"""The run registry: a persistent index of every traced run.

PR 6's traces made single runs inspectable; this module makes *runs*
addressable.  A :class:`RunRegistry` is one append-only JSONL file
(``registry.jsonl``) living beside the per-run trace sinks, recording
each run's identity (content-hash run id, experiment name/kind, spec
digest), lifecycle (``running`` -> ``ok``/``failed``, start/end
timestamps, wall time), host metadata, and headline metrics — enough to
list, filter, tail and *compare* runs without opening any trace:

* ``repro runs`` lists/filters the index;
* ``repro watch <run-id|latest>`` resolves the live trace sink through
  it and uses its status to know when a run has finished;
* ``repro report --diff`` resolves two registered runs by id and — via
  the host metadata — tells you when a wall-time delta is really a
  machine delta (the cross-device-comparability requirement of the
  Samakovlis et al. benchmarking methodology).

:func:`run_lifecycle` is the one place a run opens its trace sink,
registers, and finalizes — ``Session.run`` and the experiment service's
campaign jobs both run inside it, so both record the same columns.

The file is a :class:`repro.journal.Journal`: one record per line, the
last per run id wins (``register`` then ``finalize`` appends two full
records; a re-run appends a fresh pair).  Unlike a trace — where a
malformed event is a hard error — a torn registry line (a run killed
mid-append) is *quarantined* on load: the registry is operational
state, and a crashed run must never brick ``repro runs`` for every run
that came after it.
"""

from __future__ import annotations

import os
import platform
import socket
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..errors import ObsError, RunInterrupted
from ..journal import Journal
from . import core

__all__ = [
    "REGISTRY_BASENAME",
    "RUN_STATUSES",
    "STALE_STATUS",
    "RunLifecycle",
    "RunRecord",
    "RunRegistry",
    "host_metadata",
    "pid_alive",
    "run_lifecycle",
]

#: The registry file's name inside a trace directory.
REGISTRY_BASENAME = "registry.jsonl"

#: Valid run lifecycle states.  ``interrupted`` is terminal: the run
#: was cancelled (SIGINT/SIGTERM or an injected interrupt) after its
#: completed work was persisted, so it can be resumed by re-running.
RUN_STATUSES = ("running", "ok", "failed", "interrupted")

#: The computed (never stored) status of a ``running`` record whose
#: owner process is dead — accepted by :meth:`RunRegistry.runs` as a
#: filter and rendered by ``repro runs``.
STALE_STATUS = "stale"


def pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists on this host.

    Only positive pids name one process: ``os.kill(0, 0)`` and
    ``os.kill(-1, 0)`` signal process groups and would always succeed.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - e.g. invalid pid value
        return False
    # Signal 0 succeeds for zombies, but a zombie finished long ago and
    # merely awaits its parent's wait() — for liveness purposes (stale
    # runs, daemon ownership) it is dead.  /proc exposes the state on
    # Linux; elsewhere we keep the signal-0 answer.
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rpartition(b") ")[2]
    except OSError:
        return True
    return fields[:1] != b"Z"


def host_metadata() -> dict[str, Any]:
    """The environment fingerprint stamped on every registered run.

    Enough to decide whether two runs are comparable: interpreter,
    platform/machine, core count, library version, and host name.
    """
    from .. import __version__

    return {
        "python": platform.python_version(),
        "platform": platform.system().lower() or os.name,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "repro": __version__,
        "hostname": socket.gethostname(),
    }


@dataclass(frozen=True)
class RunRecord:
    """One run's registry entry (the latest appended state wins).

    Attributes:
        run_id: the content-hash-keyed trace/run id
            (:meth:`repro.api.session.Session.run_id_for`).
        name: the experiment's name.
        kind: the experiment kind (``figure``/``sweep``/``mission``/
            ``cohort``), or ``""`` for runs registered outside the
            session.
        spec_digest: the experiment's full canonical content hash.
        status: ``running`` | ``ok`` | ``failed`` | ``interrupted``.
        started_at / ended_at: wall-clock unix seconds (``ended_at`` is
            ``None`` while running).
        wall_s: measured wall time of the run (``None`` while running).
        trace_path: the run's JSONL sink.
        host: :func:`host_metadata` captured at registration.
        metrics: headline metrics recorded at finalization (points
            executed/cached/failed, plus anything the caller adds).
        error: failure text when ``status == "failed"``.
        peak_rss_bytes: the owner process's peak resident set at
            finalization (``None`` for records written before schema
            revision 1.5 — readers render a blank).
        cpu_s: CPU seconds the owner process burned over the run
            (``time.process_time`` delta; ``None`` pre-1.5).
        pid: the owner process's pid, stamped at registration (``None``
            pre-1.6).  While ``status == "running"``, a dead owner pid
            on the same host marks the record *stale* — the run crashed
            without finalizing.
    """

    run_id: str
    name: str = ""
    kind: str = ""
    spec_digest: str = ""
    status: str = "running"
    started_at: float = 0.0
    ended_at: float | None = None
    wall_s: float | None = None
    trace_path: str = ""
    host: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    peak_rss_bytes: int | None = None
    cpu_s: float | None = None
    pid: int | None = None

    def is_stale(self) -> bool:
        """A ``running`` record whose owner process is provably dead.

        Conservative: only decidable on the host that ran it (pid
        liveness means nothing across machines) and only for records
        that carry a pid — anything else is assumed live.
        """
        if self.status != "running" or self.pid is None:
            return False
        if self.host.get("hostname") not in (None, socket.gethostname()):
            return False
        return not pid_alive(self.pid)

    def effective_status(self) -> str:
        """The status to render: ``stale`` for dead-owner running rows."""
        return STALE_STATUS if self.is_stale() else self.status

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, exactly what one registry line carries."""
        payload: dict[str, Any] = {
            "run_id": self.run_id,
            "name": self.name,
            "kind": self.kind,
            "spec_digest": self.spec_digest,
            "status": self.status,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "wall_s": self.wall_s,
            "trace_path": self.trace_path,
            "host": dict(self.host),
            "metrics": dict(self.metrics),
        }
        # Resource fields (schema revision 1.5) are written only when
        # known — older readers never see unexpected keys, and records
        # written by older code simply lack them (rendered blank).
        if self.error is not None:
            payload["error"] = self.error
        if self.peak_rss_bytes is not None:
            payload["peak_rss_bytes"] = self.peak_rss_bytes
        if self.cpu_s is not None:
            payload["cpu_s"] = self.cpu_s
        if self.pid is not None:
            payload["pid"] = self.pid
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunRecord":
        """Rebuild a record from one parsed registry line."""
        return cls(
            run_id=str(payload["run_id"]),
            name=str(payload.get("name", "")),
            kind=str(payload.get("kind", "")),
            spec_digest=str(payload.get("spec_digest", "")),
            status=str(payload.get("status", "running")),
            started_at=float(payload.get("started_at", 0.0)),
            ended_at=payload.get("ended_at"),
            wall_s=payload.get("wall_s"),
            trace_path=str(payload.get("trace_path", "")),
            host=dict(payload.get("host", {})),
            metrics=dict(payload.get("metrics", {})),
            error=payload.get("error"),
            peak_rss_bytes=payload.get("peak_rss_bytes"),
            cpu_s=payload.get("cpu_s"),
            pid=payload.get("pid"),
        )


def _valid_line(payload: Any) -> bool:
    """A registry line is usable when it names a run id and a status."""
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("run_id"), str)
        and payload["run_id"] != ""
        and payload.get("status") in RUN_STATUSES
    )


class RunRegistry:
    """The run index of one trace directory.

    Args:
        root: the trace directory the registry lives in (the registry
            file is ``<root>/registry.jsonl``).

    Example:
        >>> import tempfile
        >>> registry = RunRegistry(tempfile.mkdtemp())
        >>> _ = registry.register("demo-abc123", name="demo", kind="sweep")
        >>> _ = registry.finalize("demo-abc123", "ok", wall_s=1.5)
        >>> registry.latest().status
        'ok'
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.path = self.root / REGISTRY_BASENAME
        self.journal = Journal(self.path, _valid_line, key="run_id")

    # -- writes ------------------------------------------------------------

    def _append(self, record: RunRecord) -> RunRecord:
        self.journal.append([record.to_dict()])
        return record

    def register(
        self,
        run_id: str,
        name: str = "",
        kind: str = "",
        spec_digest: str = "",
        trace_path: Path | str = "",
        started_at: float | None = None,
        pid: int | None = None,
    ) -> RunRecord:
        """Append a ``running`` record for a run that just started.

        The owner pid is stamped so readers (``repro runs``, ``repro
        watch``) can tell a live run from one whose process crashed
        without finalizing.  ``pid`` overrides the default
        (``os.getpid()``) for runs registered *on behalf of* another
        process — the experiment service registers each accepted job
        with the daemon's pid at submit time, so stale/dead heuristics
        track the process that actually owns the run, never the
        submitting CLI's (already exited) pid.
        """
        if not run_id:
            raise ObsError("registry run_id must be non-empty")
        return self._append(
            RunRecord(
                run_id=run_id,
                name=name,
                kind=kind,
                spec_digest=spec_digest,
                status="running",
                started_at=(
                    time.time() if started_at is None else started_at
                ),
                trace_path=str(trace_path),
                host=host_metadata(),
                pid=os.getpid() if pid is None else pid,
            )
        )

    def finalize(
        self,
        run_id: str,
        status: str,
        wall_s: float | None = None,
        metrics: dict[str, Any] | None = None,
        error: str | None = None,
        ended_at: float | None = None,
        peak_rss_bytes: int | None = None,
        cpu_s: float | None = None,
    ) -> RunRecord:
        """Append the run's terminal record (``ok`` / ``failed`` /
        ``interrupted``).

        Carries the registration's identity/host fields forward, so the
        latest line is self-contained — readers never need to merge.
        A finalize for a run id that was never registered still works
        (the record is simply sparse); that keeps the registry usable
        for runs traced by code that predates registration.
        """
        if status not in ("ok", "failed", "interrupted"):
            raise ObsError(
                "finalize status must be 'ok', 'failed' or 'interrupted',"
                f" got {status!r}"
            )
        base = self.get(run_id) or RunRecord(
            run_id=run_id, host=host_metadata()
        )
        return self._append(
            replace(
                base,
                status=status,
                ended_at=time.time() if ended_at is None else ended_at,
                wall_s=wall_s,
                metrics=dict(metrics or {}),
                error=error,
                peak_rss_bytes=peak_rss_bytes,
                cpu_s=cpu_s,
            )
        )

    # -- reads -------------------------------------------------------------

    def load(self) -> dict[str, RunRecord]:
        """All runs, keyed by run id — the last record per id wins.

        Unparsable or structurally invalid lines (torn writes from
        killed processes) are quarantined, not fatal.
        """
        return {
            run_id: RunRecord.from_dict(line)
            for run_id, line in self.journal.load().items()
        }

    def get(self, run_id: str) -> RunRecord | None:
        """The latest record of one run, or ``None``."""
        line = self.journal.get(run_id)
        return RunRecord.from_dict(line) if line is not None else None

    def runs(
        self,
        kind: str | None = None,
        status: str | None = None,
        name: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Filtered run records, newest start first.

        Args:
            kind: keep runs of this experiment kind only.
            status: keep runs in this lifecycle state only.  The
                computed ``"stale"`` selects ``running`` records whose
                owner process is dead; plain ``"running"`` excludes
                them — a crashed run no longer masquerades as live.
            name: keep runs whose experiment name contains this
                substring.
            limit: keep at most this many (after sorting).
        """
        if status is not None and status not in (
            *RUN_STATUSES, STALE_STATUS,
        ):
            raise ObsError(
                f"unknown run status {status!r}; "
                f"valid: {(*RUN_STATUSES, STALE_STATUS)}"
            )
        selected = [
            record
            for record in self.load().values()
            if (kind is None or record.kind == kind)
            and (status is None or record.effective_status() == status)
            and (name is None or name in record.name)
        ]
        selected.sort(key=lambda record: record.started_at, reverse=True)
        if limit is not None:
            selected = selected[: max(0, limit)]
        return selected

    def prune_stale(self) -> list[RunRecord]:
        """Finalize every stale run as ``interrupted``; return them.

        The terminal record notes the dead owner pid, so ``repro runs``
        stops listing the run as live and ``repro watch`` refuses to
        wait on it.  Safe to run repeatedly — already-terminal runs are
        untouched.
        """
        pruned = []
        for record in self.load().values():
            if not record.is_stale():
                continue
            pruned.append(
                self.finalize(
                    record.run_id,
                    "interrupted",
                    error=(
                        f"pruned: owner pid {record.pid} died without "
                        "finalizing"
                    ),
                )
            )
        return pruned

    def latest(
        self, kind: str | None = None, status: str | None = None
    ) -> RunRecord | None:
        """The most recently started run matching the filters, if any."""
        matches = self.runs(kind=kind, status=status, limit=1)
        return matches[0] if matches else None


@dataclass
class RunLifecycle:
    """What :func:`run_lifecycle` hands the body of a run: whether it is
    traced, the active sink and run id (``None`` untraced), the
    ``metrics`` dict the body fills in, and ``wall_s``, set on exit."""

    enabled: bool
    trace_path: Path | None
    trace_run: str | None
    metrics: dict[str, Any] = field(default_factory=dict)
    wall_s: float | None = None


@contextmanager
def run_lifecycle(
    run_id: str,
    *,
    name: str,
    kind: str,
    spec_digest: str,
    attrs: dict[str, Any] | None = None,
) -> Iterator[RunLifecycle]:
    """One run's trace sink and registry record, from start to finish.

    Opens a sink keyed by ``run_id`` when tracing is configured
    (:func:`repro.obs.core.start_run`).  A run that opened its own sink
    registers beside it, and on exit is finalized with its wall time,
    metrics, error text, owner peak RSS and CPU seconds, and status:
    ``interrupted`` on ``KeyboardInterrupt``/:class:`RunInterrupted`
    (completed work was persisted, so the run is resumable), ``failed``
    on any other exception or a positive ``metrics["n_failed"]``, else
    ``ok``.  The sink is closed first, so a watcher that sees a terminal
    status can rely on the trace being complete on disk.
    """
    owns_trace = core.start_run(run_id, name=name, attrs=attrs)
    handle = RunLifecycle(
        enabled=core.enabled(),
        trace_path=core.trace_path(),
        trace_run=core.trace_run_id(),
    )
    registry = None
    if owns_trace and handle.trace_path is not None:
        registry = RunRegistry(handle.trace_path.parent)
        registry.register(
            run_id, name=name, kind=kind, spec_digest=spec_digest,
            trace_path=handle.trace_path,
        )
    status = "ok"
    error: str | None = None
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        yield handle
    except BaseException as exc:
        cancelled = isinstance(exc, (KeyboardInterrupt, RunInterrupted))
        status = "interrupted" if cancelled else "failed"
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        handle.wall_s = time.perf_counter() - started
        if owns_trace:
            core.disable()
        if registry is not None:
            n_failed = handle.metrics.get("n_failed", 0)
            if status == "ok" and n_failed:
                status = "failed"
                error = f"{n_failed} point(s) failed"
            registry.finalize(
                run_id,
                status,
                wall_s=handle.wall_s,
                metrics=handle.metrics,
                error=error,
                peak_rss_bytes=core.peak_rss_bytes(),
                cpu_s=time.process_time() - cpu_started,
            )
