"""Client side of the experiment service.

:class:`ServiceClient` talks the daemon's one-JSON-line-per-connection
unix-socket protocol for everything that needs a live daemon (submit,
cancel, shutdown, ping) and reads the shared filesystem directly for
everything that does not: job status and listings come from the job
journal, progress streams from the job's JSONL trace, and results from
the ordinary campaign stores — so a finished job remains fully
inspectable and fetchable with the daemon down.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path
from typing import Any, Iterator

from ..api.schema import Experiment, load_experiment
from ..api.session import Session
from ..errors import ServiceError
from ..obs.registry import pid_alive
from ..obs.report import TraceTail
from .daemon import (
    ExperimentService,
    SOCKET_BASENAME,
    default_service_root,
)
from .queue import JobQueue, JobRecord

__all__ = ["ServiceClient"]


class ServiceClient:
    """Submit, track, cancel, and fetch experiment-service jobs.

    Args:
        root: the daemon's service root directory (default
            :func:`~repro.service.daemon.default_service_root`, which
            honours ``REPRO_SERVICE_DIR`` — point both the daemon and
            its clients at the same root).
        timeout_s: per-request socket timeout.
    """

    def __init__(
        self, root: Path | str | None = None, timeout_s: float = 10.0
    ) -> None:
        self.root = Path(root) if root is not None else default_service_root()
        self.timeout_s = timeout_s
        self.queue = JobQueue(self.root)

    # -- discovery ---------------------------------------------------------

    def meta(self) -> dict[str, Any] | None:
        """The daemon's discovery record (survives daemon exit)."""
        return ExperimentService.read_meta(self.root)

    def alive(self) -> bool:
        """Whether a daemon process currently owns this service root."""
        meta = self.meta()
        if meta is None:
            return False
        return pid_alive(int(meta.get("pid", 0)))

    def socket_path(self) -> Path:
        """The daemon's unix-socket path (from its discovery file)."""
        meta = self.meta()
        if meta is not None and meta.get("socket"):
            return Path(meta["socket"])
        return self.root / SOCKET_BASENAME

    # -- the wire ----------------------------------------------------------

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """One request/response exchange with the live daemon."""
        path = self.socket_path()
        payload = {"op": op, **fields}
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(self.timeout_s)
                conn.connect(str(path))
                conn.sendall(
                    (json.dumps(payload) + "\n").encode("utf-8")
                )
                chunks: list[bytes] = []
                while b"\n" not in (chunks[-1] if chunks else b""):
                    data = conn.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
        except OSError as exc:
            raise ServiceError(
                f"service daemon not reachable at {path} "
                f"({type(exc).__name__}: {exc}); start one with "
                "'repro serve'"
            ) from exc
        raw = b"".join(chunks).decode("utf-8", errors="replace").strip()
        if not raw:
            raise ServiceError(
                f"service daemon at {path} closed the connection "
                "without replying"
            )
        try:
            response = json.loads(raw.splitlines()[0])
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"malformed service response: {exc}"
            ) from exc
        if not isinstance(response, dict):
            raise ServiceError("malformed service response: not an object")
        if not response.get("ok"):
            raise ServiceError(
                str(response.get("error", "service request failed"))
            )
        return response

    def ping(self) -> dict[str, Any]:
        """The daemon's identity and queue headline."""
        return self.request("ping")

    # -- submission --------------------------------------------------------

    def submit(
        self,
        experiment: Experiment | Path | str | dict[str, Any],
        priority: int = 0,
    ) -> tuple[JobRecord, bool]:
        """Submit one experiment; returns ``(job, created)``.

        Accepts an :class:`~repro.api.schema.Experiment`, a path to an
        experiment file, or a raw payload mapping.  The job id is the
        experiment's content-hash run id, so resubmitting identical
        work is a no-op (``created=False``) while it is queued, in
        flight, or done.
        """
        if isinstance(experiment, (str, Path)):
            experiment = load_experiment(experiment)
        if isinstance(experiment, Experiment):
            payload = experiment.to_payload()
        else:
            payload = dict(experiment)
        response = self.request(
            "submit", kind="experiment", payload=payload, priority=priority
        )
        return JobRecord.from_dict(response["job"]), bool(
            response["created"]
        )

    def submit_campaign(
        self, payload: dict[str, Any], priority: int = 0
    ) -> tuple[JobRecord, bool]:
        """Submit one pre-built campaign job payload (see
        :func:`~repro.service.daemon.campaign_job_payload`)."""
        response = self.request(
            "submit", kind="campaign", payload=payload, priority=priority
        )
        return JobRecord.from_dict(response["job"]), bool(
            response["created"]
        )

    # -- tracking ----------------------------------------------------------

    def status(self, job_id: str) -> JobRecord:
        """One job's latest journal state (works with the daemon down)."""
        record = self.queue.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return record

    def jobs(
        self, status: str | None = None, kind: str | None = None,
        limit: int | None = None,
    ) -> list[JobRecord]:
        """Journal listing, newest first (works with the daemon down)."""
        return self.queue.jobs(status=status, kind=kind, limit=limit)

    def wait(
        self,
        job_id: str,
        timeout_s: float | None = None,
        poll_s: float = 0.2,
    ) -> JobRecord:
        """Block until the job reaches a terminal state.

        Raises :class:`~repro.errors.ServiceError` on timeout, and —
        rather than waiting forever — when the daemon dies while the
        job is still non-terminal (a restarted daemon will requeue it;
        simply call :meth:`wait` again once one is up).
        """
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while True:
            record = self.status(job_id)
            if record.terminal:
                return record
            if not self.alive():
                raise ServiceError(
                    f"service daemon died while job {job_id} was "
                    f"{record.status}; restart it with 'repro serve' "
                    "to resume"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout_s}s waiting for job "
                    f"{job_id} (status {record.status})"
                )
            time.sleep(poll_s)

    def progress_stream(
        self,
        job_id: str,
        poll_s: float = 0.2,
        timeout_s: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Yield the job's progress heartbeats until it is terminal.

        The stream is the job trace's ``run.progress`` gauge events
        (the same heartbeats ``repro watch`` renders), each yielded as
        its raw event dict — ``value`` is the completed-point count and
        ``attrs.total`` the grid size.  Ends when the job reaches a
        terminal journal state; raises on timeout.
        """
        record = self.status(job_id)
        trace_path = record.meta.get("trace_path")
        tail = TraceTail(trace_path) if trace_path else None
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while True:
            if tail is not None:
                for event in tail.poll():
                    if (
                        event.get("event") == "metric"
                        and event.get("name") == "run.progress"
                    ):
                        yield event
            record = self.status(job_id)
            if record.terminal:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout_s}s streaming job {job_id}"
                )
            time.sleep(poll_s)

    # -- mutation ----------------------------------------------------------

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job — via the daemon when one is alive, else
        directly in the journal (the shared-root offline path)."""
        if self.alive():
            response = self.request("cancel", job_id=job_id)
            return JobRecord.from_dict(response["job"])
        return self.queue.cancel(job_id)

    def shutdown(
        self, wait: bool = True, timeout_s: float = 30.0
    ) -> dict[str, Any]:
        """Ask the daemon to drain in-flight jobs and exit."""
        response = self.request("shutdown")
        if wait:
            deadline = time.monotonic() + timeout_s
            while self.alive():
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"daemon still running {timeout_s}s after "
                        "shutdown was requested"
                    )
                time.sleep(0.1)
        return response

    # -- results -----------------------------------------------------------

    def fetch(self, job_id: str):
        """The finished experiment job's lazy
        :class:`~repro.api.results.ResultHandle`.

        Re-attaches to the stores the job wrote (via
        :meth:`~repro.api.session.Session.attach`), so the handle is
        bit-identical to what an inline ``Session.run`` of the same
        experiment would return — and needs no live daemon.
        """
        from ..api.schema import experiment_from_payload

        record = self.status(job_id)
        if record.kind != "experiment":
            raise ServiceError(
                f"job {job_id} is a {record.kind} job; fetch its records "
                "from its result store instead"
            )
        if record.status not in ("done", "failed"):
            raise ServiceError(
                f"job {job_id} is {record.status}; results can be "
                "fetched once it is done"
            )
        experiment = experiment_from_payload(record.payload)
        store_dir = record.meta.get("store_dir")
        return Session(store_dir=store_dir).attach(experiment)
