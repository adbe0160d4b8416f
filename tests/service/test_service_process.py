"""Real-daemon-process tests: SIGKILL recovery and graceful drain.

These spawn ``repro serve`` as an actual subprocess — the only way to
honestly test that a SIGKILLed daemon loses no completed work and that
a fresh daemon resumes the journal into bit-identical stores.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.errors import ServiceError
from repro.obs.registry import pid_alive
from repro.service import JobQueue, ServiceClient, campaign_job_payload

from test_daemon import canon


def burst_spec(index: int) -> CampaignSpec:
    """Small, distinct, fast campaigns — a burst of unique jobs."""
    return CampaignSpec(
        name=f"burst-{index:02d}",
        kind="energy",
        axes={"emt": ("none", "dream"), "voltage": (0.9,)},
        fixed={"workload": {
            "n_reads": 10_000 + index, "n_writes": 10_000,
            "duration_s": 1e-3,
        }},
    )


def start_daemon(paths, workers=2, shards=2) -> subprocess.Popen:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--root", str(paths["root"]),
            "--workers", str(workers),
            "--shards", str(shards),
            "--store-dir", str(paths["store"]),
            "--trace-dir", str(paths["trace"]),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(root=paths["root"], timeout_s=5.0)
    deadline = time.monotonic() + 60.0
    while True:
        try:
            client.ping()
            return proc
        except ServiceError:
            if proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited during startup (rc {proc.returncode})"
                )
            if time.monotonic() > deadline:
                proc.kill()
                raise AssertionError("daemon never became reachable")
            time.sleep(0.1)


def submit_burst(client, paths, n_jobs):
    job_ids = []
    for index in range(n_jobs):
        spec = burst_spec(index)
        payload = campaign_job_payload(
            spec, spec.expand(), spec.name, str(paths["store"]),
        )
        job, created = client.submit_campaign(payload)
        assert created
        job_ids.append(job.job_id)
    return job_ids


def wait_all_terminal(queue, job_ids, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while True:
        jobs = queue.load()
        if all(
            job_id in jobs and jobs[job_id].terminal for job_id in job_ids
        ):
            return jobs
        if time.monotonic() > deadline:
            states = {
                job_id: jobs.get(job_id) and jobs[job_id].status
                for job_id in job_ids
            }
            raise AssertionError(f"jobs never finished: {states}")
        time.sleep(0.1)


def running_owner_pids(queue) -> set[int]:
    """Every worker pid the journal recorded on a ``running`` transition."""
    pids = set()
    for line in queue.path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:  # the kill may tear the last line
            continue
        if record.get("status") == "running" and record.get("owner_pid"):
            pids.add(record["owner_pid"])
    return pids


class TestSigkillRecovery:
    def test_kill_midburst_loses_no_completed_work(
        self, service_paths, tmp_path
    ):
        n_jobs = 8
        queue = JobQueue(service_paths["root"])
        daemon = start_daemon(service_paths, workers=2)
        try:
            client = ServiceClient(root=service_paths["root"])
            job_ids = submit_burst(client, service_paths, n_jobs)

            # Let some jobs finish, then SIGKILL mid-burst.
            deadline = time.monotonic() + 120.0
            while True:
                jobs = queue.load()
                done = [j for j in job_ids if jobs[j].status == "done"]
                if len(done) >= 2:
                    break
                assert time.monotonic() < deadline, "burst never started"
                time.sleep(0.05)
        finally:
            daemon.kill()
            daemon.wait()

        # The fleet workers notice their owner died and exit on their
        # own instead of blocking forever on the task queue.
        workers = running_owner_pids(queue)
        assert workers
        deadline = time.monotonic() + 10.0
        while any(pid_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, (
                f"orphaned fleet workers still alive: {workers}"
            )
            time.sleep(0.1)

        # The journal survived the kill: parsable, no lost submissions.
        jobs = queue.load()
        assert set(job_ids) <= set(jobs)
        done_before = {
            job_id for job_id in job_ids if jobs[job_id].status == "done"
        }
        assert len(done_before) >= 2

        # A fresh daemon recovers the journal and finishes the burst.
        daemon = start_daemon(service_paths, workers=2)
        try:
            jobs = wait_all_terminal(queue, job_ids)
            assert all(jobs[j].status == "done" for j in job_ids)
            # Completed work stayed completed.
            assert all(jobs[j].status == "done" for j in done_before)
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)

        # Every store is bit-identical to an inline run of its spec.
        for index in (0, n_jobs - 1):
            spec = burst_spec(index)
            inline = run_campaign(
                spec,
                store=ResultStore.for_campaign(
                    spec.name, root=tmp_path / "inline"
                ),
                n_workers=1,
            )
            service_store = ResultStore.for_campaign(
                spec.name, root=service_paths["store"]
            )
            assert canon(list(service_store.load().values())) == canon(
                inline.records
            )

        # Results sharded as configured.
        shard_dir = service_paths["store"] / "burst-00.shards"
        assert len(list(shard_dir.glob("shard-*.jsonl"))) >= 1
        meta = json.loads(
            (shard_dir / "shards.json").read_text(encoding="utf-8")
        )
        assert meta["shards"] == 2


class TestGracefulDrain:
    def test_stop_drains_inflight_and_exits_zero(self, service_paths):
        queue = JobQueue(service_paths["root"])
        daemon = start_daemon(service_paths, workers=1)
        try:
            client = ServiceClient(root=service_paths["root"])
            job_ids = submit_burst(client, service_paths, 3)
            client.shutdown(wait=True, timeout_s=60)
        finally:
            try:
                rc = daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
                raise AssertionError("daemon never exited after shutdown")
        assert rc == 0

        # Drained means nothing was abandoned mid-flight: every job is
        # either finished or still untouched in the queue.
        jobs = queue.load()
        for job_id in job_ids:
            assert jobs[job_id].status in ("done", "queued"), (
                job_id, jobs[job_id].status,
            )

    def test_sigterm_requeues_inflight_for_the_next_daemon(
        self, service_paths
    ):
        queue = JobQueue(service_paths["root"])
        daemon = start_daemon(service_paths, workers=1)
        try:
            client = ServiceClient(root=service_paths["root"])
            # Big grids (hundreds of points each), so jobs stay
            # observably in flight — a burst-sized job is done before
            # the poll below can ever catch it mid-run.
            job_ids = []
            for index in range(3):
                spec = CampaignSpec(
                    name=f"slow-{index}", kind="energy",
                    axes={
                        "emt": ("none", "dream"),
                        "voltage": tuple(
                            0.5 + 0.001 * step for step in range(200)
                        ),
                    },
                    fixed={"workload": {
                        "n_reads": 10_000 + index, "n_writes": 10_000,
                        "duration_s": 1e-3,
                    }},
                )
                payload = campaign_job_payload(
                    spec, spec.expand(), spec.name,
                    str(service_paths["store"]),
                )
                job, created = client.submit_campaign(payload)
                assert created
                job_ids.append(job.job_id)
            # Wait for the fleet to claim work, then interrupt.
            deadline = time.monotonic() + 60.0
            while not any(
                record.status in ("claimed", "running")
                for record in queue.load().values()
            ):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            daemon.send_signal(signal.SIGTERM)
            rc = daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        assert rc == 130  # the repo-wide interrupted exit code

        # No job is left in an in-flight state a dead daemon owns.
        jobs = queue.load()
        for job_id in job_ids:
            assert jobs[job_id].status in ("done", "queued")
