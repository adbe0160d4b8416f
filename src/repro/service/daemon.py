"""The long-running experiment service daemon.

:class:`ExperimentService` turns the repository's one-shot execution
stack into a persistent service: clients submit work (whole declarative
experiments, or single campaigns with explicit point lists) over a
unix-domain socket, get back content-hash job ids immediately, and poll
or stream progress while a supervised worker fleet drains the queue in
the background.

The moving parts are all re-used, not re-invented:

* the **queue** is :class:`~repro.service.queue.JobQueue` — a
  crash-consistent JSONL journal with the result store's locked-append
  discipline, so a SIGKILLed daemon restarts into exactly the state it
  journalled;
* the **fleet** is a :class:`~repro.resilience.supervisor.SupervisedPool`
  in streaming (:meth:`~repro.resilience.supervisor.SupervisedPool.serve`)
  mode — dead-worker requeue, per-job retry/timeout/backoff, chaos
  compatibility, and graceful SIGINT/SIGTERM drain all apply to service
  jobs unchanged.  Workers are spawned non-daemonic because one job is
  a whole experiment that fans out *internally* (nested pools);
* **results** land in the ordinary campaign stores (sharded when the
  daemon is configured with ``shards > 1`` via
  :data:`~repro.campaign.store.SHARDS_ENV`), so ``Session.attach``,
  ``compact()``, and resume semantics hold for service-run results
  bit for bit;
* every accepted job is **registered** in the run registry at submit
  time under the daemon's pid, re-registered by the executing worker
  under its own pid, and finalised exactly once — so ``repro runs``,
  ``repro watch`` and ``repro report`` treat service jobs as ordinary
  runs.

Protocol: one JSON object per line, one request per connection.  The
daemon listens on ``<service root>/service.sock`` and records its
identity in ``<service root>/daemon.json`` (pid, socket, store/trace
directories) — the discovery file clients resolve, which deliberately
survives daemon exit so results remain fetchable with the daemon down.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from .. import obs
from ..api.schema import experiment_from_payload
from ..api.serde import content_hash
from ..api.session import Session
from ..campaign.runner import run_campaign, run_metrics
from ..campaign.spec import CampaignPoint, CampaignSpec
from ..campaign.store import ResultStore, SHARDS_ENV, default_store_root
from ..errors import ReproError, RunInterrupted, ServiceError
from ..resilience.retry import RetryPolicy
from ..resilience.supervisor import SupervisedPool
from .queue import JobQueue, JobRecord

__all__ = [
    "ENV_SERVICE_DIR",
    "ExperimentService",
    "default_service_root",
]

#: Environment override for the service root directory.
ENV_SERVICE_DIR = "REPRO_SERVICE_DIR"

#: Discovery file the daemon writes inside its root.
DAEMON_BASENAME = "daemon.json"

#: Unix-domain socket the daemon listens on, inside its root.
SOCKET_BASENAME = "service.sock"

#: Wire protocol version (one JSON line each way per connection).
PROTOCOL_VERSION = 1

#: Upper bound on one request line — campaign submissions carry their
#: full point list, so this is generous but still a backstop.
_MAX_REQUEST_BYTES = 32 * 1024 * 1024


def default_service_root() -> Path:
    """Directory holding the job journal, socket, and discovery file.

    ``REPRO_SERVICE_DIR`` overrides the default
    ``benchmarks/results/service`` (relative to the working directory),
    next to the campaign stores the jobs write into.
    """
    raw = os.environ.get(ENV_SERVICE_DIR)
    if raw:
        return Path(raw).expanduser()
    return Path("benchmarks") / "results" / "service"


def _spec_from_payload(payload: dict[str, Any]) -> CampaignSpec:
    """Rebuild a campaign spec from its JSON form (filters never cross)."""
    try:
        return CampaignSpec(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            axes={
                str(axis): tuple(values)
                for axis, values in dict(payload["axes"]).items()
            },
            fixed=dict(payload.get("fixed", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(
            f"malformed campaign spec payload: {exc!r}"
        ) from exc


def campaign_job_payload(
    spec: CampaignSpec,
    points: list[CampaignPoint],
    store_name: str | None,
    store_root: str | None,
    resume: bool = True,
    workers: int = 1,
) -> dict[str, Any]:
    """The JSON-safe form of one campaign job.

    Spec filters are arbitrary callables and cannot cross a process
    boundary, so the payload carries the *expanded* coordinate list —
    the executor replays exactly these points via
    :func:`~repro.campaign.runner.run_campaign`'s ``points`` override.
    """
    return {
        "spec": {
            "name": spec.name,
            "kind": spec.kind,
            "axes": {axis: list(values) for axis, values in spec.axes.items()},
            "fixed": dict(spec.fixed),
        },
        "points": [dict(point.coords) for point in points],
        "store_name": store_name,
        "store_root": store_root,
        "resume": resume,
        "workers": workers,
    }


def campaign_job_id(payload: dict[str, Any]) -> str:
    """Content-hash job id of a campaign payload (``svc-`` prefixed)."""
    return f"svc-{content_hash(payload)[:12]}"


# --------------------------------------------------------------------------
# Worker-side job execution (module-level: must be picklable)
# --------------------------------------------------------------------------


def _run_experiment_job(unit: dict[str, Any]) -> dict[str, Any]:
    experiment = experiment_from_payload(unit["payload"])
    if experiment.backend == "service":
        # The daemon *is* the service backend; a job must execute its
        # campaigns directly or submission would recurse forever.
        experiment = replace(experiment, backend=None)
    session = Session(store_dir=unit.get("store_dir"))
    handle = session.run(experiment)
    records = handle.records
    failures = handle.failures()
    summary: dict[str, Any] = {
        "status": "failed" if failures else "ok",
        "kind": "experiment",
        "run_id": session.run_id_for(experiment),
        "n_points": len(records),
        "n_failed": len(failures),
    }
    if failures:
        summary["error"] = f"{len(failures)} point(s) failed"
    telemetry = getattr(handle, "_telemetry", None) or {}
    if telemetry.get("trace_path"):
        summary["trace_path"] = telemetry["trace_path"]
    return summary


def _run_campaign_job(unit: dict[str, Any]) -> dict[str, Any]:
    payload = unit["payload"]
    spec = _spec_from_payload(payload["spec"])
    points = [
        CampaignPoint(kind=spec.kind, coords=dict(coords),
                      fixed=dict(spec.fixed))
        for coords in payload.get("points", [])
    ]
    store = None
    if payload.get("store_name"):
        store = ResultStore.for_campaign(
            payload["store_name"], root=payload.get("store_root")
        )
    job_id = unit["job_id"]
    with obs.run_lifecycle(
        job_id,
        name=spec.name,
        kind="campaign",
        spec_digest=content_hash(payload["spec"]),
        attrs={"kind": "campaign", "service": True},
    ) as lifecycle:
        result = run_campaign(
            spec,
            store=store,
            n_workers=int(payload.get("workers", 1)),
            resume=bool(payload.get("resume", True)),
            points=points,
        )
        lifecycle.metrics.update(run_metrics([result]))
    error = f"{result.n_failed} point(s) failed" if result.n_failed else None
    return {
        "status": "failed" if error else "ok",
        "kind": "campaign",
        "run_id": job_id,
        "n_points": len(result.records),
        "n_executed": result.n_executed,
        "n_cached": result.n_cached,
        "n_failed": result.n_failed,
        **({"error": error} if error else {}),
    }


def _job_worker(unit: dict[str, Any]) -> dict[str, Any]:
    """Fleet worker body: execute one job, return its JSON-safe summary.

    Exceptions deliberately propagate — the supervised pool's
    retry/backoff/quarantine machinery is the service's job-level fault
    handling, exactly as for campaign points.
    """
    if unit.get("kind") == "campaign":
        return _run_campaign_job(unit)
    return _run_experiment_job(unit)


# --------------------------------------------------------------------------
# The daemon
# --------------------------------------------------------------------------


class ExperimentService:
    """The experiment service daemon: socket front, fleet back.

    Args:
        root: service root directory (journal + socket + discovery
            file); default :func:`default_service_root`.
        workers: fleet size — jobs executing concurrently.
        store_dir: campaign-store root jobs write results into
            (default: the ordinary store root, honouring
            ``REPRO_CAMPAIGN_DIR``).
        trace_dir: trace/registry directory (default: the configured
            trace dir, falling back to the repo default) — exported to
            the environment so jobs and their workers trace into it.
        shards: result-store shard count exported via
            :data:`~repro.campaign.store.SHARDS_ENV`; new stores
            created by service jobs are sharded this way.  ``<= 1``
            leaves the environment alone.
        policy: fleet retry policy (default honours ``REPRO_RETRY_*``).
        poll_s: supervision/scheduling cadence.
        max_inflight: jobs handed to the fleet at once (default
            ``2 * workers`` — enough to keep every worker busy without
            claiming the whole queue, so late high-priority submissions
            still jump ahead).
    """

    def __init__(
        self,
        root: Path | str | None = None,
        workers: int = 2,
        store_dir: Path | str | None = None,
        trace_dir: Path | str | None = None,
        shards: int = 4,
        policy: RetryPolicy | None = None,
        poll_s: float = 0.05,
        max_inflight: int | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if shards < 0:
            raise ServiceError(f"shards must be >= 0, got {shards}")
        self.root = Path(root) if root is not None else default_service_root()
        self.workers = workers
        self.store_dir = (
            Path(store_dir) if store_dir is not None else default_store_root()
        )
        self.trace_dir = (
            Path(trace_dir)
            if trace_dir is not None
            else (obs.configured_dir() or obs.default_trace_dir())
        )
        self.shards = shards
        self.policy = policy
        self.poll_s = poll_s
        self.max_inflight = (
            max_inflight if max_inflight is not None else 2 * workers
        )
        self.queue = JobQueue(self.root)
        self.registry = obs.RunRegistry(self.trace_dir)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._closing = threading.Event()
        self._inflight: dict[str, dict[str, Any]] = {}
        self._sock: socket.socket | None = None
        self._sock_thread: threading.Thread | None = None
        self._started_at = 0.0

    # -- paths -------------------------------------------------------------

    @property
    def socket_path(self) -> Path:
        return self.root / SOCKET_BASENAME

    @property
    def meta_path(self) -> Path:
        return self.root / DAEMON_BASENAME

    # -- lifecycle ---------------------------------------------------------

    def serve(self) -> int:
        """Run the daemon until asked to stop; returns an exit code.

        Startup order is the crash-recovery contract: recover the
        journal first (requeue every job a dead daemon left in flight),
        then open the socket, then start scheduling.  Returns 0 after a
        graceful drain (a ``shutdown`` request), 130 when cancelled by
        SIGINT/SIGTERM (in-flight jobs are requeued for the next
        daemon).
        """
        existing = self.read_meta(self.root)
        if (
            existing is not None
            and existing.get("pid") != os.getpid()
            and obs.pid_alive(int(existing.get("pid", 0)))
        ):
            raise ServiceError(
                f"a service daemon is already running for {self.root} "
                f"(pid {existing['pid']})"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        if self.shards > 1:
            os.environ[SHARDS_ENV] = str(self.shards)
        obs.set_trace_dir(self.trace_dir)
        requeued = self.queue.recover()
        for job in requeued:
            # Re-own recovered jobs under this daemon's pid so watchers
            # see a live owner while they wait for re-execution.
            self._register(job)
        self._write_meta()
        self._open_socket()
        self._started_at = time.monotonic()
        interrupted = False
        pool = SupervisedPool(
            _job_worker,
            self.workers,
            policy=self.policy,
            name="service",
            tick_s=self.poll_s,
            daemon=False,
            on_claim=self._on_claim,
        )
        try:
            for batch in pool.serve(self._feed, self._stop.is_set):
                self._absorb(batch)
        except RunInterrupted:
            interrupted = True
            self._requeue_inflight()
        finally:
            self._close_socket()
        return 130 if interrupted else 0

    def request_stop(self) -> None:
        """Ask the scheduler to drain and exit (thread-safe)."""
        self._stop.set()

    # -- scheduling --------------------------------------------------------

    def _feed(self) -> list[tuple[str, dict[str, Any]]]:
        """Hand queued jobs to the fleet, capacity-limited, in order."""
        if self._stop.is_set():
            return []
        units: list[tuple[str, dict[str, Any]]] = []
        with self._lock:
            if len(self._inflight) >= self.max_inflight:
                return []
            for job in self.queue.pending():
                if len(self._inflight) >= self.max_inflight:
                    break
                if job.job_id in self._inflight:
                    continue
                unit = {
                    "job_id": job.job_id,
                    "kind": job.kind,
                    "name": job.name,
                    "payload": job.payload,
                    "store_dir": str(self.store_dir),
                }
                self.queue.mark(
                    job.job_id, "claimed", owner_pid=os.getpid()
                )
                self._inflight[job.job_id] = unit
                units.append((job.job_id, unit))
        return units

    def _on_claim(self, job_id: str, pid: int) -> None:
        """A fleet worker picked the job up: journal the transition."""
        with self._lock:
            try:
                self.queue.mark(job_id, "running", owner_pid=pid)
            except ServiceError:  # pragma: no cover - job vanished
                pass

    def _absorb(self, batch: list[Any]) -> None:
        """Record one tick's finished jobs in the journal/registry."""
        for outcome in batch:
            with self._lock:
                self._inflight.pop(outcome.key, None)
            if outcome.quarantined:
                error = (
                    f"quarantined after {outcome.attempts} attempt(s): "
                    f"{outcome.failure_fields()['error']}"
                )
                self.queue.mark(
                    outcome.key, "failed", error=error,
                    result={"attempts": outcome.attempts},
                )
                # No worker survived to finalise the registry row.
                self.registry.finalize(outcome.key, "failed", error=error)
                continue
            summary = outcome.value if isinstance(outcome.value, dict) else {}
            status = "done" if summary.get("status") == "ok" else "failed"
            self.queue.mark(
                outcome.key, status,
                error=summary.get("error"), result=summary,
            )

    def _requeue_inflight(self) -> None:
        """Cancellation path: put interrupted jobs back in the queue."""
        with self._lock:
            for job_id in list(self._inflight):
                try:
                    self.queue.mark(job_id, "queued", requeued=True)
                except ServiceError:  # pragma: no cover - journal torn
                    pass
            self._inflight.clear()

    # -- discovery ---------------------------------------------------------

    def _write_meta(self) -> None:
        payload = {
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "socket": str(self.socket_path),
            "root": str(self.root),
            "workers": self.workers,
            "shards": self.shards,
            "store_dir": str(self.store_dir),
            "trace_dir": str(self.trace_dir),
            "started_at": time.time(),
        }
        tmp = self.meta_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.meta_path)

    @staticmethod
    def read_meta(root: Path | str) -> dict[str, Any] | None:
        """The discovery record of a service root, or ``None``."""
        path = Path(root) / DAEMON_BASENAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- registry ----------------------------------------------------------

    def _register(self, job: JobRecord) -> None:
        """Register a job's run-registry row under the daemon's pid.

        Submit-time registration is what makes ``repro runs``/``watch``
        aware of queued work — and the recorded owner pid is the
        daemon's, so a dead daemon makes its queued jobs report
        ``stale`` instead of silently running forever.
        """
        self.registry.register(
            job.job_id,
            name=job.name,
            kind=job.kind,
            spec_digest=job.meta.get("spec_digest", ""),
            trace_path=job.meta.get("trace_path", ""),
            pid=os.getpid(),
        )

    # -- socket front ------------------------------------------------------

    def _open_socket(self) -> None:
        self.socket_path.unlink(missing_ok=True)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(self.socket_path))
        sock.listen(16)
        sock.settimeout(0.2)
        self._sock = sock
        self._sock_thread = threading.Thread(
            target=self._accept_loop, name="repro-service-sock", daemon=True
        )
        self._sock_thread.start()

    def _close_socket(self) -> None:
        self._closing.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._sock_thread is not None:
            self._sock_thread.join(timeout=1.0)
        self.socket_path.unlink(missing_ok=True)

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._closing.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                with conn:
                    self._handle_connection(conn)
            except Exception:  # noqa: BLE001 - a bad client must not
                pass  # kill the daemon

    def _handle_connection(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        chunks: list[bytes] = []
        size = 0
        while b"\n" not in (chunks[-1] if chunks else b""):
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
            size += len(data)
            if size > _MAX_REQUEST_BYTES:
                raise ServiceError("request exceeds the size limit")
        raw = b"".join(chunks)
        if not raw.strip():
            return
        try:
            request = json.loads(raw.decode("utf-8").splitlines()[0])
            response = self._dispatch(request)
        except ReproError as exc:
            response = {"ok": False, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        conn.sendall(
            (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
        )

    def _dispatch(self, request: Any) -> dict[str, Any]:
        if not isinstance(request, dict) or "op" not in request:
            raise ServiceError("a request must be a JSON object with an 'op'")
        op = request["op"]
        handler = {
            "ping": self._op_ping,
            "submit": self._op_submit,
            "status": self._op_status,
            "jobs": self._op_jobs,
            "cancel": self._op_cancel,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            raise ServiceError(f"unknown service op {op!r}")
        return handler(request)

    # -- ops ---------------------------------------------------------------

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        by_status: dict[str, int] = {}
        for job in self.queue.load().values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "ok": True,
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "workers": self.workers,
            "shards": self.shards,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "inflight": len(self._inflight),
            "jobs": by_status,
        }

    def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request.get("kind", "experiment")
        priority = int(request.get("priority", 0))
        payload = request.get("payload")
        if not isinstance(payload, dict):
            raise ServiceError("submit needs a 'payload' object")
        if kind == "experiment":
            experiment = experiment_from_payload(payload)
            job_id = f"{experiment.name}-{experiment.content_hash()[:12]}"
            name = experiment.name
            payload = experiment.to_payload()
            spec_digest = experiment.content_hash()
        elif kind == "campaign":
            spec = _spec_from_payload(payload.get("spec", {}))
            if not isinstance(payload.get("points"), list):
                raise ServiceError(
                    "a campaign submission needs a 'points' list"
                )
            job_id = campaign_job_id(payload)
            name = spec.name
            spec_digest = content_hash(payload["spec"])
        else:
            raise ServiceError(
                f"submit kind must be 'experiment' or 'campaign', "
                f"got {kind!r}"
            )
        meta = {
            "store_dir": str(self.store_dir),
            "trace_path": str(self.trace_dir / f"{job_id}.jsonl"),
            "spec_digest": spec_digest,
        }
        with self._lock:
            record, created = self.queue.submit(
                job_id, kind, payload,
                name=name, priority=priority, meta=meta,
            )
        if created:
            self._register(record)
        return {"ok": True, "job": record.to_dict(), "created": created}

    def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self.queue.get(str(request.get("job_id", "")))
        if job is None:
            raise ServiceError(
                f"unknown job id {request.get('job_id')!r}"
            )
        return {"ok": True, "job": job.to_dict()}

    def _op_jobs(self, request: dict[str, Any]) -> dict[str, Any]:
        jobs = self.queue.jobs(
            status=request.get("status"), kind=request.get("kind"),
            limit=request.get("limit"),
        )
        return {"ok": True, "jobs": [job.to_dict() for job in jobs]}

    def _op_cancel(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = str(request.get("job_id", ""))
        with self._lock:
            if job_id in self._inflight:
                raise ServiceError(
                    f"job {job_id} is already executing; only queued "
                    "jobs can be cancelled"
                )
            record = self.queue.cancel(job_id)
        self.registry.finalize(
            job_id, "interrupted", error="cancelled before execution"
        )
        return {"ok": True, "job": record.to_dict()}

    def _op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self._stop.set()
        with self._lock:
            draining = len(self._inflight)
        return {"ok": True, "draining": draining}
