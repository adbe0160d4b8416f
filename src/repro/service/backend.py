"""The ``service`` execution backend: campaigns via the daemon.

Registering this backend under ``"service"`` in
:data:`~repro.api.session.BACKENDS` routes ``Session.run`` through the
experiment service with zero caller changes: the session still plans
the experiment locally, and each planned campaign is shipped to the
daemon as one campaign job — the spec's JSON form plus its *expanded*
point list.  The daemon's fleet executes the job into the very
store the session would have used, over the shared filesystem, so once
the job is terminal the backend simply reads the records back and
rebuilds an ordinary :class:`~repro.campaign.runner.CampaignResult` —
bit-identical to an inline run by the store layer's content-addressed
construction.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from ..campaign.runner import CampaignResult
from ..campaign.spec import CampaignSpec
from ..campaign.store import ResultStore
from ..errors import ServiceError
from .daemon import campaign_job_payload
from .client import ServiceClient

__all__ = ["ServiceBackend"]


def _store_identity(store: ResultStore) -> tuple[str, str]:
    """``(root, campaign name)`` of a store, plain or sharded."""
    path = store.path
    if path.name.endswith(".shards"):
        return str(path.parent), path.name[: -len(".shards")]
    return str(path.parent), path.stem


class ServiceBackend:
    """Execute campaigns as jobs of a running experiment service.

    Args:
        workers: per-job worker count the daemon's executing worker
            fans each campaign out over (the fleet decides how many
            *jobs* run concurrently; this decides parallelism inside
            one job).
        root: the daemon's service root (default honours
            ``REPRO_SERVICE_DIR``).
        priority: job priority for every campaign this backend submits.
        poll_s / timeout_s: completion-polling cadence and cap
            (``None`` waits indefinitely).
    """

    name = "service"

    def __init__(
        self,
        workers: int = 1,
        root: Path | str | None = None,
        priority: int = 0,
        poll_s: float = 0.2,
        timeout_s: float | None = None,
    ) -> None:
        self.workers = max(1, workers)
        self.priority = priority
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.client = ServiceClient(root=root)

    def execute(
        self,
        spec: CampaignSpec,
        store: ResultStore | None = None,
        resume: bool = True,
        progress: Callable[[int, int, dict], None] | None = None,
    ) -> CampaignResult:
        """Submit the campaign as one job, wait, and read results back."""
        points = spec.expand()
        if store is not None:
            store_root, store_name = _store_identity(store)
        else:
            # An ephemeral campaign still needs a store the daemon and
            # this client can both see: park it under the service root,
            # named by the campaign (content-hash records dedupe reruns).
            store_root = str(self.client.root / "stores")
            store_name = spec.name
        payload = campaign_job_payload(
            spec, points, store_name, store_root,
            resume=resume, workers=self.workers,
        )
        job, created = self.client.submit_campaign(
            payload, priority=self.priority
        )
        # Submitting work the service already finished is a dedup hit:
        # nothing runs again, so account for it the way an inline resume
        # would — everything this call returns came from the store.
        deduplicated = not created and job.terminal
        record = self.client.wait(
            job.job_id, timeout_s=self.timeout_s, poll_s=self.poll_s
        )
        summary: dict[str, Any] = record.result or {}
        if record.status == "cancelled":
            raise ServiceError(
                f"campaign job {job.job_id} was cancelled before it ran"
            )
        if record.status == "failed" and "n_points" not in summary:
            # Infrastructure failure (quarantined), not point failures —
            # there are no records to return.
            raise ServiceError(
                f"campaign job {job.job_id} failed in the service: "
                f"{record.error or 'unknown error'}"
            )
        # Re-resolve rather than reuse `store`: the daemon may have
        # created the store sharded, which for_campaign auto-detects.
        readback = ResultStore.for_campaign(store_name, root=store_root)
        stored = readback.load()
        result = CampaignResult(spec_name=spec.name)
        for point in points:
            rec = stored.get(point.content_hash())
            if rec is None:  # pragma: no cover - store torn mid-read
                continue
            result.records.append(rec)
            if rec.get("status") == "failed":
                result.n_failed += 1
            if progress is not None:
                progress(len(result.records), len(points), rec)
        if deduplicated:
            result.n_executed = 0
            result.n_cached = len(result.records)
        else:
            result.n_executed = int(summary.get("n_executed", 0))
            result.n_cached = int(summary.get("n_cached", 0))
        return result
