"""Campaign execution: fan a spec's grid across a worker pool.

The runner expands a :class:`~repro.campaign.spec.CampaignSpec`, skips
every point whose content hash already has a successful record in the
:class:`~repro.campaign.store.ResultStore` (resume), and evaluates the
remainder through :func:`~repro.resilience.fan_out` — serially, or
across a supervised worker pool when ``n_workers > 1``.
Each point is evaluated by a pure function of its parameters with
deterministic per-point seeding, so worker-pool and serial executions
produce identical results regardless of scheduling order — and a
*retried* point (after a worker crash, timeout, or injected transient
fault) is bit-identical to a first-try point.

Failures are captured, not fatal: an evaluator exception becomes a
``status == "failed"`` record carrying the error text, the campaign keeps
going, and failed points are retried on the next run.  Infrastructure
faults — a dead worker, an overstayed deadline, a transport error, an
injected chaos fault — are retried *within* the run with backoff, and a
point that exhausts its attempts is quarantined as a ``failed`` record
carrying its attempt history instead of hanging the drain.
"""

from __future__ import annotations

import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field

from .. import obs
from ..errors import CampaignError, RunInterrupted
from ..resilience import WorkOutcome, active_chaos, fan_out
from .evaluators import evaluate_point
from .spec import CampaignPoint, CampaignSpec
from .store import ResultStore

__all__ = ["CampaignResult", "run_campaign", "run_metrics"]

#: Bounded retry of a store append (transient ENOSPC-style faults).
_STORE_WRITE_ATTEMPTS = 5

#: Signature of the optional progress callback:
#: ``progress(n_done, n_total, record)`` after every completed point.
ProgressFn = Callable[[int, int, dict], None]


@dataclass
class CampaignResult:
    """Outcome of one campaign run (fresh evaluations plus cache hits).

    Attributes:
        spec_name: the campaign's name.
        records: one record per expanded point, in grid order.  Each has
            ``hash``, ``kind``, ``params``, ``status`` (``"ok"`` or
            ``"failed"``), and ``result`` (ok) or ``error`` (failed).
        n_executed: points evaluated in this invocation.
        n_cached: points satisfied from the result store.
        n_failed: points whose evaluator raised (this invocation or a
            cached failure that was retried and failed again).
    """

    spec_name: str
    records: list[dict] = field(default_factory=list)
    n_executed: int = 0
    n_cached: int = 0
    n_failed: int = 0

    def ok_records(self) -> list[dict]:
        """Records of successfully evaluated points only."""
        return [rec for rec in self.records if rec["status"] == "ok"]

    def failures(self) -> list[dict]:
        """Records of failed points (with their ``error`` text)."""
        return [rec for rec in self.records if rec["status"] == "failed"]

    def raise_on_failure(self) -> None:
        """Raise :class:`CampaignError` if any point failed.

        The first failure's captured worker traceback is included — with
        no result store attached it would otherwise be lost, leaving no
        file/line to locate the fault.
        """
        failed = self.failures()
        if failed:
            first = failed[0]
            detail = first.get("traceback", "")
            raise CampaignError(
                f"{len(failed)} of {len(self.records)} points of campaign "
                f"{self.spec_name!r} failed; first: {first['error']}"
                + (f"\n{detail}" if detail else "")
            )


def run_metrics(results: list[CampaignResult]) -> dict[str, int]:
    """The run registry's headline metrics over one run's campaigns."""
    n_executed = sum(result.n_executed for result in results)
    n_cached = sum(result.n_cached for result in results)
    return {
        "n_points": n_executed + n_cached,
        "n_executed": n_executed,
        "n_cached": n_cached,
        "n_failed": sum(result.n_failed for result in results),
    }


def _evaluate_payload(payload: tuple[str, CampaignPoint]) -> dict:
    """Worker entry point: evaluate one point, never raise."""
    point_hash, point = payload
    started = time.perf_counter()
    record = {
        "hash": point_hash,
        "kind": point.kind,
        "params": point.params,
        # Axis coordinates alone — what identifies the point in logs,
        # without the (possibly large) shared fixed parameters.
        "coords": dict(point.coords),
    }
    # In a pool worker this span is the process's top level, so closing
    # it flushes the worker's buffer — pool teardown (terminate) cannot
    # lose completed points.
    with obs.span(
        "point",
        **{"kind": point.kind, "hash": point_hash[:12], **point.coords},
    ) as point_span:
        try:
            record["result"] = evaluate_point(point)
            record["status"] = "ok"
            obs.counter("campaign.points_ok")
        except RunInterrupted:
            # Cancellation of a nested drain (a cohort point runs its
            # own fleet pool) is a run-level event, not a point failure.
            raise
        except Exception as exc:  # noqa: BLE001 - failure capture is the point
            record["status"] = "failed"
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["traceback"] = traceback.format_exc(limit=20)
            obs.counter("campaign.points_failed")
            point_span.fail(record["error"])
            if point_span.span_id is not None:
                # Cross-reference the trace from the failure record (and
                # vice versa) — but only when traced, so stored records
                # are byte-identical in untraced runs.
                record["span"] = point_span.span_id
    record["elapsed_s"] = round(time.perf_counter() - started, 6)
    # Throttled per-process resource gauges (worker RSS/CPU) at the
    # per-point seam — one boolean check when untraced.
    obs.resource_probe()
    return record


def _quarantine_record(
    point_hash: str, point: CampaignPoint, outcome: WorkOutcome
) -> dict:
    """The ``failed`` record of a point that exhausted its attempts.

    Every attempt died on an infrastructure fault (worker crash,
    deadline, transport error, injected chaos), so there is no
    evaluator record to store — this one is honest about what happened:
    the real cumulative elapsed time, the attempt count, the
    per-attempt history, and the last attempt's traceback.
    """
    record = {
        "hash": point_hash,
        "kind": point.kind,
        "params": point.params,
        "coords": dict(point.coords),
        **outcome.failure_fields(),
        "elapsed_s": round(
            sum(entry.get("elapsed_s", 0.0) for entry in outcome.history), 6
        ),
    }
    last = outcome.history[-1] if outcome.history else {}
    if last.get("traceback"):
        record["traceback"] = last["traceback"]
    return record


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | None = None,
    n_workers: int = 1,
    progress: ProgressFn | None = None,
    resume: bool = True,
    points: list[CampaignPoint] | None = None,
) -> CampaignResult:
    """Execute (or resume) a campaign.

    Args:
        spec: the declarative grid to explore.
        store: optional result store; when given, points whose hash
            already has a successful record are *not* re-evaluated, and
            every fresh evaluation is appended as it completes.
        n_workers: worker processes; ``1`` runs in-process (no pool).
        progress: optional callback invoked after every point (cached or
            fresh) with ``(n_done, n_total, record)``.
        resume: when false, stored results are ignored and every point
            re-executes — but fresh records are still appended, so they
            supersede the stale ones (later records win on load).
        points: explicit point list overriding ``spec.expand()`` — the
            seam a remote executor uses to ship a grid whose filters
            (arbitrary callables, applied at expansion time in the
            submitting process) cannot cross a process boundary.  Point
            content hashes depend only on kind + merged parameters, so
            results are identical either way.

    Returns:
        A :class:`CampaignResult` with records in grid order.
    """
    if n_workers < 1:
        raise CampaignError(f"n_workers must be >= 1, got {n_workers}")
    with obs.span(
        "campaign", campaign=spec.name, kind=spec.kind, workers=n_workers
    ) as campaign_span:
        if points is None:
            points = spec.expand()
        cached: dict[str, dict] = {}
        if store is not None and resume:
            stored = store.load()
            cached = {
                h: rec for h, rec in stored.items()
                if rec.get("status") == "ok"
            }

        result = CampaignResult(spec_name=spec.name)
        by_hash: dict[str, dict] = {}
        n_done = 0

        # Hash once per point; duplicate-hash points (degenerate grids)
        # collapse to one unit of work so executed/cached accounting
        # stays symmetric and progress always reaches the total.
        point_hashes = [point.content_hash() for point in points]
        unique: dict[str, CampaignPoint] = {}
        for point_hash, point in zip(point_hashes, points):
            unique.setdefault(point_hash, point)
        total = len(unique)

        todo: dict[str, CampaignPoint] = {}
        for point_hash, point in unique.items():
            if point_hash in cached:
                by_hash[point_hash] = cached[point_hash]
                result.n_cached += 1
                n_done += 1
                if progress is not None:
                    progress(n_done, total, cached[point_hash])
            else:
                todo[point_hash] = point
        if n_done:
            obs.heartbeat(
                "campaign.progress", n_done, campaign=spec.name, total=total
            )

        # Work key = point hash; payload = the (hash, point) tuple
        # _evaluate_payload takes.  A batch is every point that completed
        # since the last tick (one point when serial), so a burst of
        # fast points still costs one store append (single open + flock).
        for outcomes in fan_out(
            _evaluate_payload,
            [(h, (h, p)) for h, p in todo.items()],
            n_workers,
            name="campaign",
            parent_span_id=campaign_span.span_id,
        ):
            records = [
                o.value if o.status == "completed"
                else _quarantine_record(o.key, todo[o.key], o)
                for o in outcomes
            ]
            for record in records:
                by_hash[record["hash"]] = record
                result.n_executed += 1
                if record["status"] == "failed":
                    result.n_failed += 1
            if store is not None:
                _persist(store, records)
            for record in records:
                n_done += 1
                if progress is not None:
                    progress(n_done, total, record)
            obs.heartbeat(
                "campaign.progress", n_done, campaign=spec.name, total=total
            )

        result.records = [by_hash[h] for h in point_hashes]
        obs.counter("campaign.points_executed", result.n_executed)
        obs.counter("campaign.points_cached", result.n_cached)
        if result.n_failed:
            obs.counter("campaign.points_failed", result.n_failed)
    return result


def _persist(store: ResultStore, records: list[dict]) -> None:
    """One locked store write, with bounded retry on write faults.

    A transient ``OSError`` (a full disk that frees up, an injected
    ENOSPC from the chaos layer) is retried a few times before it fails
    the campaign — completed evaluations should survive a hiccup at the
    persistence seam.
    """
    chaos = active_chaos()
    for attempt in range(1, _STORE_WRITE_ATTEMPTS + 1):
        try:
            chaos.inject_store_write(records[0]["hash"], attempt)
            store.append_many(records)
            return
        except OSError as exc:
            if attempt >= _STORE_WRITE_ATTEMPTS:
                raise CampaignError(
                    f"store append failed after {attempt} attempts: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            obs.counter("store.write_retries")
            time.sleep(0.02 * attempt)
