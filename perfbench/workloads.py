"""The benchmark's three workloads, driven through public entry points.

Each workload is built from ``(seed, scale, work_dir)``; ``start()`` is
set-up (everything before the first timed operation), ``run()`` is the
timed region, ``check()`` verifies the outputs and condenses them into
a :class:`Outcome`, and ``close()`` releases what ``start()`` acquired.
``scale="tiny"`` shrinks every workload to the minimum that still
exercises its layers (the self-test's size).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import Session, experiment_from_payload
from repro.api.serde import canonical_json
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.service import ServiceClient, campaign_job_payload
from repro.service.queue import TERMINAL_STATUSES
from repro.signals.metrics import SNR_CAP_DB

__all__ = ["Outcome", "WORKLOADS"]


@dataclass
class Outcome:
    """What one repetition produced, after its output checks.

    Attributes:
        attempted / failed: operations run and operations whose output
            check failed (a failed workload-level check counts as one).
        digest: SHA-256 over the deterministic part of the results.
        metrics: workload-specific figures, by name.
    """

    attempted: int
    failed: int
    digest: str
    metrics: dict[str, float] = field(default_factory=dict)


def _digest(rows: list) -> str:
    return hashlib.sha256(canonical_json(rows).encode()).hexdigest()


def _record_rows(records: list[dict]) -> list:
    """The deterministic part of stored point records, in hash order."""
    return sorted(
        [rec["hash"], rec.get("status"), rec.get("result")] for rec in records
    )


class _ExperimentWorkload:
    """An experiment run inline through :class:`repro.api.Session`."""

    kind = ""

    def __init__(self, seed: int, scale: str, work_dir: Path) -> None:
        self.params = self.sized(scale == "full")
        self.experiment = experiment_from_payload({
            "version": 1, "kind": self.kind, "name": f"perfbench-{self.kind}",
            "seed": seed, self.kind: self.params,
        })
        self.session = Session(
            backend="inline", workers=1, store_dir=work_dir / "campaigns"
        )
        self.handle = None

    def sized(self, full: bool) -> dict[str, Any]:
        raise NotImplementedError

    def start(self) -> None:
        pass

    def run(self) -> None:
        self.handle = self.session.run(self.experiment)

    def close(self) -> None:
        pass


class SweepMC(_ExperimentWorkload):
    """Section V Monte-Carlo sweep on the paper's case-study app."""

    name = "sweep_mc"
    kind = "sweep"

    def sized(self, full: bool) -> dict[str, Any]:
        return {
            "apps": ["dwt"],
            "emts": ["none", "dream", "secded"],
            "voltages": (
                [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]
                if full else [0.6, 0.9]
            ),
            "records": ["100", "106"] if full else ["100"],
            "duration_s": 8.0 if full else 1.0,
            "runs": 40 if full else 2,
        }

    def check(self, wall_s: float) -> Outcome:
        records = self.handle.records
        failed = 0
        for rec in records:
            ok = rec.get("status") == "ok"
            if ok and rec["kind"] == "montecarlo":
                snrs = rec["result"]["snr_mean_db"].values()
                ok = all(math.isfinite(s) and s <= SNR_CAP_DB for s in snrs)
            failed += not ok
        p = self.params
        trials = (
            p["runs"] * len(p["emts"]) * len(p["records"]) * len(p["voltages"])
        )
        return Outcome(
            attempted=len(records), failed=failed,
            digest=_digest(_record_rows(records)),
            metrics={"mc_trials_per_s": trials / wall_s},
        )


class CohortFleet(_ExperimentWorkload):
    """A 24-patient, two-policy fleet of day-long missions."""

    name = "cohort_fleet"
    kind = "cohort"

    def sized(self, full: bool) -> dict[str, Any]:
        return {
            "size": 24 if full else 2,
            "policies": ["hysteresis", "soc"],
            "duration_scale": 1.0 if full else 0.01,
            "probe_runs": 3 if full else 2,
            "probe_duration_s": 4.0 if full else 1.0,
        }

    def check(self, wall_s: float) -> Outcome:
        size = self.params["size"]
        missions = size * len(self.params["policies"])
        ok_points = [
            rec for rec in self.handle.records if rec.get("status") == "ok"
        ]
        # A failed point loses all of its patients.
        failed = size * (len(self.params["policies"]) - len(ok_points))
        failed += sum(rec["result"]["n_failed"] for rec in ok_points)
        return Outcome(
            attempted=missions, failed=failed,
            digest=_digest(_record_rows(self.handle.records)),
            metrics={"patients_per_s": missions / wall_s},
        )


class ServiceBurst:
    """A closed-loop client bursting tiny campaign jobs at a live daemon."""

    name = "service_burst"

    def __init__(self, seed: int, scale: str, work_dir: Path) -> None:
        full = scale == "full"
        self.n_jobs = 150 if full else 4
        self.workers = 2
        # Relative to the working directory: unix socket paths are short.
        self.root = Path(os.path.relpath(work_dir / "service"))
        self.store_dir = (work_dir / "stores").resolve()
        self.work_dir = work_dir
        rng = np.random.default_rng(seed)
        base = int(rng.integers(10_000, 1_000_000))
        self.specs = [
            CampaignSpec(
                name=f"burst-{index:03d}",
                kind="energy",
                axes={"emt": ("none", "dream"), "voltage": (0.9,)},
                fixed={"workload": {
                    "n_reads": base + index,
                    "n_writes": int(rng.integers(10_000, 100_000)),
                    "duration_s": 1e-3,
                }},
            )
            for index in range(self.n_jobs)
        ]
        self.payloads = [
            campaign_job_payload(
                spec, spec.expand(), spec.name, str(self.store_dir)
            )
            for spec in self.specs
        ]
        self.client = ServiceClient(root=self.root, timeout_s=30.0)
        self.daemon: subprocess.Popen | None = None
        self.submitted_at: list[float] = []
        self.submit_s: list[float] = []
        self.job_ids: list[str] = []
        self.finals: dict[str, Any] = {}
        self.records: list[dict] = []

    def start(self) -> None:
        log = (self.work_dir / "daemon.log").open("wb")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--root", str(self.root), "--workers", str(self.workers),
             "--shards", "2", "--store-dir", str(self.store_dir),
             "--trace-dir", str(self.work_dir / "traces")],
            stdout=log, stderr=subprocess.STDOUT,
        )
        log.close()
        # Up means answering ping with its worker fleet forked.  The
        # daemon opens its socket before forking the fleet, and a worker
        # forked during a submit's locked journal append inherits the
        # flock and holds it for life, deadlocking the daemon.
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.ping()
                if len(self._daemon_children()) >= self.workers:
                    return
            except Exception:  # noqa: BLE001 - not up yet
                pass
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "service daemon never came up; log:\n"
                    + (self.work_dir / "daemon.log").read_text()[-2000:]
                )
            time.sleep(0.02)

    def _daemon_children(self) -> set[str]:
        pids: set[str] = set()
        for task in Path(f"/proc/{self.daemon.pid}/task").iterdir():
            pids.update((task / "children").read_text().split())
        return pids

    def run(self) -> None:
        for payload in self.payloads:
            self.submitted_at.append(time.time())
            started = time.perf_counter()
            job, created = self.client.submit_campaign(payload)
            self.submit_s.append(time.perf_counter() - started)
            if not created:
                raise RuntimeError(f"job {job.job_id} deduplicated")
            self.job_ids.append(job.job_id)
        for job_id in self.job_ids:
            self.finals[job_id] = self.client.wait(
                job_id, timeout_s=90.0, poll_s=0.05
            )
        for spec in self.specs:
            store = ResultStore.for_campaign(spec.name, root=self.store_dir)
            self.records.append(store.load())

    def _journal(self) -> dict[str, dict[str, float]]:
        """First time each job reached each state, from the journal."""
        reached: dict[str, dict[str, float]] = {}
        for line in self.client.queue.path.read_text().splitlines():
            try:
                rec = json.loads(line)
                states = reached.setdefault(rec["job_id"], {})
                states.setdefault("submitted", rec["submitted_at"])
                status = rec["status"]
                states.setdefault(
                    "terminal" if status in TERMINAL_STATUSES else status,
                    rec["updated_at"],
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
        return reached

    def check(self, wall_s: float) -> Outcome:
        failed = 0
        shards: set[str] = set()
        rows = []
        for spec, job_id, stored in zip(self.specs, self.job_ids, self.records):
            good = self.finals[job_id].status == "done" and len(stored) == 2
            good = good and all(r.get("status") == "ok" for r in stored.values())
            failed += not good
            rows.append(_record_rows(list(stored.values())))
            shard_dir = self.store_dir / f"{spec.name}.shards"
            shards.update(p.name for p in shard_dir.glob("shard-*.jsonl"))
        failed += len(shards) < 2
        reached = self._journal()
        stages = [reached[job_id] for job_id in self.job_ids]

        def stage_p50(start: str, end: str) -> float:
            return statistics.median(
                [s[end] - s[start] for s in stages if start in s and end in s]
                or [0.0]
            )

        burst_s = max(s["terminal"] for s in stages) - self.submitted_at[0]
        latencies = [
            s["terminal"] - t for s, t in zip(stages, self.submitted_at)
        ]
        quarantine = self.client.queue.path.with_suffix(".jsonl.quarantine")
        journal = self.client.queue.path.read_bytes()
        metrics = {
            "jobs_per_s": self.n_jobs / burst_s,
            "job_latency_p50_s": statistics.median(latencies),
            "job_latency_p90_s": _p90(latencies),
            "submit_latency_p50_ms": 1e3 * statistics.median(self.submit_s),
            "service.queue_wait_p50_s": stage_p50("submitted", "claimed"),
            "service.dispatch_p50_s": stage_p50("claimed", "running"),
            "service.execute_p50_s": stage_p50("running", "terminal"),
            "service.journal_bytes": len(journal),
            "service.journal_records": journal.count(b"\n"),
            "service.quarantined_lines": (
                len(quarantine.read_text().splitlines())
                if quarantine.exists() else 0
            ),
        }
        return Outcome(
            attempted=self.n_jobs, failed=failed, digest=_digest(rows),
            metrics=metrics,
        )

    def close(self) -> None:
        if self.daemon is None:
            return
        try:
            if self.daemon.poll() is None:
                self.client.shutdown(wait=True, timeout_s=60.0)
            self.daemon.wait(timeout=60.0)
        finally:
            # A fleet orphaned here dies with the repetition's process group.
            if self.daemon.poll() is None:
                self.daemon.kill()
                self.daemon.wait()


def _p90(values: list[float]) -> float:
    """90th percentile (inclusive quantiles; needs >= 2 values)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


WORKLOADS = {cls.name: cls for cls in (SweepMC, CohortFleet, ServiceBurst)}
