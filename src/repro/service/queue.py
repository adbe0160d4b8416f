"""The durable job queue behind the experiment service.

One append-only JSONL journal (``<service root>/jobs.jsonl``), a
:class:`repro.journal.Journal` under the quarantine torn-line policy,
records every state transition of every job the daemon ever accepted —
so it is both the queue and its own audit log, and a SIGKILLed daemon
loses at most the single transition it was writing.  A submission
appends the full record; a transition appends a *delta line* without
the payload (see ``docs/service.md``).  The fold merges per job id.

Job lifecycle::

    queued -> claimed -> running -> done | failed
    queued -> cancelled

``claimed`` means the scheduler handed the job to the worker fleet;
``running`` means a worker process announced it picked the job up (the
journal then carries that worker's pid as ``owner_pid``).  Higher
``priority`` jobs are handed out first; ties break by submission time
then job id, so dispatch order is deterministic.  Submission is
idempotent: job ids derive from content hashes (an experiment's run id,
a campaign payload's digest), and resubmitting an id that is already
queued, in flight, or done returns the existing job — only ``failed``
and ``cancelled`` jobs are re-queued by a resubmission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..errors import ServiceError
from ..journal import Journal
from ..obs.registry import pid_alive

__all__ = [
    "JOB_STATUSES",
    "JOB_KINDS",
    "TERMINAL_STATUSES",
    "JobRecord",
    "JobQueue",
]

#: Every valid job lifecycle state, in lifecycle order.
JOB_STATUSES = (
    "queued", "claimed", "running", "done", "failed", "cancelled",
)

#: States a job never leaves.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Kinds of work the service executes.
JOB_KINDS = ("experiment", "campaign")

#: The journal file's name inside a service root directory.
JOURNAL_BASENAME = "jobs.jsonl"

#: The fields a transition's delta line carries.
_DELTA_FIELDS = (
    "job_id", "status", "submitted_at", "updated_at", "requeues",
    "owner_pid", "error", "result",
)


@dataclass(frozen=True)
class JobRecord:
    """One job's journal entry (the latest appended state wins).

    Attributes:
        job_id: content-hash-derived identity — an experiment's run id
            (:meth:`repro.api.session.Session.run_id_for`) or a
            campaign payload digest.  Doubles as the trace/registry run
            id, so ``repro watch <job id>`` works on service jobs.
        kind: ``"experiment"`` or ``"campaign"``.
        name: display name (the experiment or campaign name).
        payload: the JSON-safe work description (a dumped experiment,
            or a campaign spec + explicit points).
        priority: higher dispatches first (default 0).
        status: current lifecycle state.
        submitted_at / updated_at: wall-clock unix seconds.
        owner_pid: the process responsible for the job right now — the
            daemon while ``queued``/``claimed``, the executing worker
            while ``running``.  Dead-owner detection keys off this.
        requeues: times the job was recovered/requeued after a crash.
        error: failure text when ``status == "failed"``.
        result: JSON-safe outcome summary recorded at completion.
        meta: service-side annotations (store directory, trace path)
            stamped at submission so clients can fetch results with the
            daemon down.
    """

    job_id: str
    kind: str
    name: str = ""
    payload: dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    status: str = "queued"
    submitted_at: float = 0.0
    updated_at: float = 0.0
    owner_pid: int | None = None
    requeues: int = 0
    error: str | None = None
    result: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        """Whether the job's state can never change again."""
        return self.status in TERMINAL_STATUSES

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form — exactly what one journal line carries."""
        record: dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "name": self.name,
            "payload": self.payload,
            "priority": self.priority,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "requeues": self.requeues,
            "meta": dict(self.meta),
        }
        if self.owner_pid is not None:
            record["owner_pid"] = self.owner_pid
        if self.error is not None:
            record["error"] = self.error
        if self.result is not None:
            record["result"] = self.result
        return record

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        """Rebuild a record from one parsed journal line."""
        return cls(
            job_id=str(payload["job_id"]),
            kind=str(payload.get("kind", "experiment")),
            name=str(payload.get("name", "")),
            payload=dict(payload.get("payload", {})),
            priority=int(payload.get("priority", 0)),
            status=str(payload.get("status", "queued")),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            updated_at=float(payload.get("updated_at", 0.0)),
            owner_pid=payload.get("owner_pid"),
            requeues=int(payload.get("requeues", 0)),
            error=payload.get("error"),
            result=payload.get("result"),
            meta=dict(payload.get("meta", {})),
        )


def _valid_line(payload: Any) -> bool:
    """A journal line is usable when it names a job id and a status."""
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("job_id"), str)
        and payload["job_id"] != ""
        and payload.get("status") in JOB_STATUSES
    )


def _merge(previous: dict | None, line: dict) -> dict:
    """A full record replaces the job; a delta line updates it."""
    return line if "payload" in line else {**(previous or {}), **line}


class JobQueue:
    """The durable job journal of one service root directory.

    Every mutation is one locked append; reads fold the journal per
    job id.  Multiple processes may read concurrently with the daemon's
    writes (``repro jobs`` works with the daemon down or mid-write);
    writes are expected from the daemon and — for offline cancellation
    — a client holding the same root.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.path = self.root / JOURNAL_BASENAME
        self.journal = Journal(
            self.path, _valid_line, key="job_id", merge=_merge
        )

    # -- writes ------------------------------------------------------------

    def submit(
        self,
        job_id: str,
        kind: str,
        payload: dict[str, Any],
        name: str = "",
        priority: int = 0,
        meta: dict[str, Any] | None = None,
    ) -> tuple[JobRecord, bool]:
        """Enqueue a job; returns ``(record, created)``.

        Idempotent on ``job_id``: an id that is already queued, in
        flight, or done returns its existing record with
        ``created=False`` (content-hash ids make "same submission"
        decidable).  A ``failed`` or ``cancelled`` id is re-queued
        fresh — resubmission is the retry mechanism.
        """
        if not job_id:
            raise ServiceError("job id must be non-empty")
        if kind not in JOB_KINDS:
            raise ServiceError(
                f"job kind must be one of {JOB_KINDS}, got {kind!r}"
            )
        existing = self.get(job_id)
        if existing is not None and existing.status not in (
            "failed", "cancelled",
        ):
            return existing, False
        now = time.time()
        record = JobRecord(
            job_id=job_id,
            kind=kind,
            name=name,
            payload=payload,
            priority=priority,
            status="queued",
            submitted_at=now,
            updated_at=now,
            requeues=existing.requeues if existing is not None else 0,
            meta=dict(meta or {}),
        )
        self.journal.append([record.to_dict()])
        return record, True

    def mark(
        self,
        job_id: str,
        status: str,
        owner_pid: int | None = None,
        error: str | None = None,
        result: dict[str, Any] | None = None,
        requeued: bool = False,
    ) -> JobRecord:
        """Append a state transition as a delta line."""
        if status not in JOB_STATUSES:
            raise ServiceError(
                f"job status must be one of {JOB_STATUSES}, got {status!r}"
            )
        previous = self.get(job_id)
        if previous is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        record = replace(
            previous,
            status=status,
            updated_at=time.time(),
            owner_pid=owner_pid,
            error=error,
            result=result,
            requeues=previous.requeues + (1 if requeued else 0),
        )
        self.journal.append(
            [{name: getattr(record, name) for name in _DELTA_FIELDS}]
        )
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job that has not started; terminal is idempotent.

        Only ``queued`` jobs are cancellable — once the scheduler hands
        a job to the fleet it runs to completion (its results are
        idempotent and content-addressed, so finishing is always safe).
        Cancelling an already-``cancelled`` job is a no-op.
        """
        record = self.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        if record.status == "cancelled":
            return record
        if record.status != "queued":
            raise ServiceError(
                f"job {job_id} is {record.status}; only queued jobs can "
                "be cancelled"
            )
        return self.mark(job_id, "cancelled")

    def recover(self) -> list[JobRecord]:
        """Requeue every job a dead daemon left in flight.

        Called once at daemon startup, before any scheduling: a fresh
        daemon has no workers, so *every* ``claimed``/``running`` job
        in the journal is orphaned — its supervising loop is gone and
        its outcome can never be recorded, even if an orphaned worker
        process is still finishing (whose store appends are harmless:
        records are content-addressed, so a re-run is bit-identical).
        Returns the requeued records.
        """
        requeued = []
        for record in self.load().values():
            if record.status not in ("claimed", "running"):
                continue
            requeued.append(
                self.mark(record.job_id, "queued", requeued=True)
            )
        return requeued

    # -- reads -------------------------------------------------------------

    def load(self) -> dict[str, JobRecord]:
        """All jobs, keyed by job id.

        Torn or structurally invalid lines are quarantined (to
        ``jobs.jsonl.quarantine``) and skipped, never fatal — a killed
        writer must not brick the queue.
        """
        return {
            job_id: JobRecord.from_dict(line)
            for job_id, line in self.journal.load().items()
        }

    def get(self, job_id: str) -> JobRecord | None:
        """The latest record of one job, or ``None``."""
        line = self.journal.get(job_id)
        return JobRecord.from_dict(line) if line is not None else None

    def jobs(
        self,
        status: str | None = None,
        kind: str | None = None,
        limit: int | None = None,
    ) -> list[JobRecord]:
        """Filtered job records, newest submission first."""
        if status is not None and status not in JOB_STATUSES:
            raise ServiceError(
                f"unknown job status {status!r}; valid: {JOB_STATUSES}"
            )
        selected = [
            record
            for record in self.load().values()
            if (status is None or record.status == status)
            and (kind is None or record.kind == kind)
        ]
        selected.sort(
            key=lambda record: (-record.submitted_at, record.job_id)
        )
        if limit is not None:
            selected = selected[: max(0, limit)]
        return selected

    def pending(self) -> list[JobRecord]:
        """Queued jobs in dispatch order: priority, then age, then id."""
        queued = [
            JobRecord.from_dict(line)
            for line in self.journal.load().values()
            if line["status"] == "queued"
        ]
        queued.sort(
            key=lambda record: (
                -record.priority, record.submitted_at, record.job_id,
            )
        )
        return queued

    def stale_owner(self, record: JobRecord) -> bool:
        """Whether an in-flight job's owner process is provably dead."""
        return (
            record.status in ("claimed", "running")
            and record.owner_pid is not None
            and not pid_alive(record.owner_pid)
        )

    def __len__(self) -> int:
        return len(self.journal.load())
