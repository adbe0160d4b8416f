"""In-process daemon end-to-end: submit, execute, stream, fetch."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.api.schema import Experiment, Fig2Params
from repro.api.session import Session
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ShardedResultStore
from repro.errors import ServiceError
from repro.obs import RunRegistry
from repro.service import (
    ExperimentService,
    JobQueue,
    ServiceClient,
    campaign_job_payload,
)

#: Fields that differ between two executions of identical work.
VOLATILE = ("elapsed_s", "patients_per_s", "cache")


def canon(records):
    """Records in bit-identical comparison form: volatile fields
    stripped, JSON-normalised, sorted by content hash."""
    stripped = [
        {k: v for k, v in record.items() if k not in VOLATILE}
        for record in records
    ]
    return sorted(
        json.loads(json.dumps(stripped, sort_keys=True)),
        key=lambda record: record["hash"],
    )


def tiny_fig2(name="svc-tiny", apps=("morphology",), **top) -> Experiment:
    return Experiment(
        name=name,
        kind="figure",
        params=Fig2Params(apps=apps, records=("100",), duration_s=2.0),
        **top,
    )


def energy_spec(n_reads=20_000) -> CampaignSpec:
    return CampaignSpec(
        name="svc-energy",
        kind="energy",
        axes={"emt": ("none", "dream"), "voltage": (0.9,)},
        fixed={"workload": {
            "n_reads": n_reads, "n_writes": n_reads, "duration_s": 1e-3,
        }},
    )


class TestExperimentJobs:
    def test_end_to_end_and_bit_identical_to_inline(
        self, run_daemon, service_paths, tmp_path
    ):
        # Two points whose content hashes route to different shards.
        experiment = tiny_fig2(apps=("morphology", "dwt"), store="svc-fig2")
        with run_daemon() as (_service, client):
            job, created = client.submit(experiment)
            assert created
            assert job.job_id == f"{experiment.name}-" \
                f"{experiment.content_hash()[:12]}"
            record = client.wait(job.job_id, timeout_s=120)
            assert record.status == "done"
            assert record.result["n_points"] == 2
            assert record.result["n_failed"] == 0

            # Results shard across the daemon's configured shard count.
            shard_dir = service_paths["store"] / "svc-fig2.shards"
            shards = sorted(p.name for p in shard_dir.glob("shard-*.jsonl"))
            assert shards == ["shard-00.jsonl", "shard-01.jsonl"]
            assert len(ShardedResultStore(shard_dir).load()) == 2

            # Fetch re-attaches to the stores — identical to an inline
            # run of the very same experiment, modulo wall-clock noise.
            fetched = client.fetch(job.job_id)
            inline = Session(store_dir=tmp_path / "inline").run(experiment)
            assert canon(fetched.records) == canon(inline.records)

    def test_resubmission_deduplicates(self, run_daemon):
        experiment = tiny_fig2(store="svc-dedupe")
        with run_daemon() as (_service, client):
            job, created = client.submit(experiment)
            assert created
            client.wait(job.job_id, timeout_s=120)
            again, created_again = client.submit(experiment)
            assert not created_again
            assert again.job_id == job.job_id
            assert again.status == "done"

    def test_progress_stream_yields_heartbeats(self, run_daemon):
        experiment = tiny_fig2(store="svc-stream")
        with run_daemon() as (_service, client):
            job, _ = client.submit(experiment)
            events = list(
                client.progress_stream(job.job_id, poll_s=0.05,
                                       timeout_s=120)
            )
            assert events, "no run.progress heartbeats streamed"
            assert all(e["name"] == "run.progress" for e in events)
            last = events[-1]
            assert last["value"] == last["attrs"]["total"] == 1

    def test_ephemeral_experiment_runs_but_persists_nothing(
        self, run_daemon
    ):
        experiment = tiny_fig2(name="svc-ephemeral")  # no store field
        with run_daemon() as (_service, client):
            job, _ = client.submit(experiment)
            record = client.wait(job.job_id, timeout_s=120)
            assert record.status == "done"
            # Same semantics as Session.attach on a store-less
            # experiment: nothing to re-read.
            assert client.fetch(job.job_id).records == []

    def test_service_jobs_land_in_the_run_registry(
        self, run_daemon, service_paths
    ):
        experiment = tiny_fig2(store="svc-registry")
        with run_daemon() as (_service, client):
            job, _ = client.submit(experiment)
            client.wait(job.job_id, timeout_s=120)
            registry = RunRegistry(service_paths["trace"])
            record = registry.get(job.job_id)
            assert record is not None
            assert record.status == "ok"
            assert record.pid is not None


class TestCampaignJobs:
    def test_campaign_payload_round_trip(self, run_daemon, service_paths):
        spec = energy_spec()
        payload = campaign_job_payload(
            spec, spec.expand(), "svc-energy", str(service_paths["store"]),
        )
        with run_daemon() as (_service, client):
            job, created = client.submit_campaign(payload)
            assert created and job.job_id.startswith("svc-")
            record = client.wait(job.job_id, timeout_s=120)
            assert record.status == "done"
            assert record.result["n_points"] == 2
            assert record.result["n_executed"] == 2

    def test_malformed_campaign_submission_rejected(self, run_daemon):
        with run_daemon() as (_service, client):
            with pytest.raises(ServiceError, match="points"):
                client.submit_campaign({
                    "spec": {
                        "name": "x", "kind": "energy",
                        "axes": {"emt": ["none"]},
                    },
                })
            with pytest.raises(ServiceError, match="at least one axis"):
                client.submit_campaign({
                    "spec": {"name": "x", "kind": "energy", "axes": {}},
                    "points": [],
                })


class TestSocketOps:
    def test_ping_reports_identity_and_queue(self, run_daemon):
        with run_daemon(workers=1, shards=2) as (_service, client):
            pong = client.ping()
            assert pong["pid"] == os.getpid()  # in-process daemon thread
            assert pong["workers"] == 1
            assert pong["shards"] == 2
            assert isinstance(pong["jobs"], dict)

    def test_unknown_op_and_garbage_are_survivable(self, run_daemon):
        with run_daemon() as (_service, client):
            with pytest.raises(ServiceError, match="unknown service op"):
                client.request("selfdestruct")
            with pytest.raises(ServiceError, match="job id"):
                client.request("status", job_id="ghost")
            # The daemon shrugs off protocol garbage and keeps serving.
            import socket as socketlib

            with socketlib.socket(
                socketlib.AF_UNIX, socketlib.SOCK_STREAM
            ) as conn:
                conn.connect(str(client.socket_path()))
                conn.sendall(b"this is not json\n")
                conn.recv(65536)
            client.ping()

    def test_second_daemon_on_same_root_refused(self, service_paths):
        # A *foreign live* process owns the root (same-pid re-serve is
        # the allowed restart path, so the owner must be another pid).
        owner = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            root = service_paths["root"]
            root.mkdir(parents=True)
            (root / "daemon.json").write_text(
                json.dumps({"pid": owner.pid}), encoding="utf-8"
            )
            rival = ExperimentService(
                root=root, store_dir=service_paths["store"],
                trace_dir=service_paths["trace"],
            )
            with pytest.raises(ServiceError, match="already running"):
                rival.serve()
        finally:
            owner.kill()
            owner.wait()


class TestCancellation:
    def test_cancel_queued_job_via_daemon(self, service_paths):
        """_op_cancel without a fleet: deterministic queued-job cancel."""
        service = ExperimentService(
            root=service_paths["root"], store_dir=service_paths["store"],
            trace_dir=service_paths["trace"],
        )
        service.root.mkdir(parents=True)
        response = service._op_submit({
            "kind": "experiment",
            "payload": tiny_fig2(name="svc-cancel").to_payload(),
        })
        job_id = response["job"]["job_id"]
        cancelled = service._op_cancel({"job_id": job_id})
        assert cancelled["job"]["status"] == "cancelled"
        # The registry row is finalized so `repro runs` shows closure.
        record = RunRegistry(service_paths["trace"]).get(job_id)
        assert record.status == "interrupted"
        assert "cancelled" in record.error

    def test_cancel_rejects_inflight_jobs(self, service_paths):
        service = ExperimentService(
            root=service_paths["root"], store_dir=service_paths["store"],
            trace_dir=service_paths["trace"],
        )
        service.root.mkdir(parents=True)
        response = service._op_submit({
            "kind": "experiment",
            "payload": tiny_fig2(name="svc-inflight").to_payload(),
        })
        job_id = response["job"]["job_id"]
        service._inflight[job_id] = {}
        with pytest.raises(ServiceError, match="already executing"):
            service._op_cancel({"job_id": job_id})

    def test_offline_cancel_without_a_daemon(self, service_paths):
        queue = JobQueue(service_paths["root"])
        queue.submit("lonely", "experiment", {})
        client = ServiceClient(root=service_paths["root"])
        assert not client.alive()
        assert client.cancel("lonely").status == "cancelled"


class TestClientOffline:
    def test_status_and_jobs_work_with_daemon_down(self, service_paths):
        queue = JobQueue(service_paths["root"])
        queue.submit("offline-job", "experiment", {}, name="off")
        client = ServiceClient(root=service_paths["root"])
        assert client.status("offline-job").status == "queued"
        assert [j.job_id for j in client.jobs()] == ["offline-job"]

    def test_request_without_daemon_points_at_serve(self, service_paths):
        client = ServiceClient(root=service_paths["root"])
        with pytest.raises(ServiceError, match="repro serve"):
            client.ping()

    def test_wait_raises_when_daemon_dies_mid_job(self, service_paths):
        # A journal with a non-terminal job and a dead daemon pid: wait
        # must raise rather than poll forever.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        queue = JobQueue(service_paths["root"])
        queue.submit("doomed", "experiment", {})
        service_paths["root"].mkdir(parents=True, exist_ok=True)
        (service_paths["root"] / "daemon.json").write_text(
            json.dumps({"pid": proc.pid}), encoding="utf-8"
        )
        client = ServiceClient(root=service_paths["root"])
        with pytest.raises(ServiceError, match="died"):
            client.wait("doomed", timeout_s=5)

    def test_wait_times_out(self, run_daemon):
        # max_inflight=0 parks every submission in the queue, so the
        # job deterministically never turns terminal before the timeout.
        with run_daemon(max_inflight=0) as (_service, client):
            job, _ = client.submit(tiny_fig2(name="svc-parked"))
            with pytest.raises(ServiceError, match="timed out"):
                client.wait(job.job_id, timeout_s=0.2, poll_s=0.05)


class TestCrashRecovery:
    def test_serve_recovers_inflight_jobs_at_startup(self, service_paths):
        # Simulate a SIGKILLed daemon: in-flight journal states, no
        # process. A fresh daemon must requeue them before scheduling.
        queue = JobQueue(service_paths["root"])
        queue.submit("was-claimed", "experiment", {})
        queue.submit("was-running", "experiment", {})
        queue.mark("was-claimed", "claimed", owner_pid=1)
        queue.mark("was-running", "running", owner_pid=1)
        requeued = queue.recover()
        assert {r.job_id for r in requeued} == {
            "was-claimed", "was-running",
        }
        assert all(
            r.status == "queued" and r.requeues == 1 for r in requeued
        )
