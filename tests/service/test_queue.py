"""The durable job queue: journal discipline, lifecycle, recovery."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import ServiceError
from repro.service import JobQueue, JobRecord, TERMINAL_STATUSES
from repro.service.queue import JOURNAL_BASENAME


@pytest.fixture()
def queue(tmp_path):
    return JobQueue(tmp_path / "svc")


def submit(queue, job_id="job-a", priority=0, **kw):
    record, created = queue.submit(
        job_id, "experiment", {"name": job_id}, name=job_id,
        priority=priority, **kw
    )
    return record, created


class TestSubmission:
    def test_submit_round_trip(self, queue):
        record, created = submit(queue, meta={"store_dir": "/tmp/x"})
        assert created
        assert record.status == "queued"
        assert record.submitted_at > 0
        assert (queue.root / JOURNAL_BASENAME).is_file()
        loaded = queue.get("job-a")
        assert loaded == record
        assert loaded.meta == {"store_dir": "/tmp/x"}

    def test_dict_round_trip_is_lossless(self, queue):
        record, _ = submit(queue)
        marked = queue.mark(
            "job-a", "failed", owner_pid=123, error="boom",
            result={"n": 1},
        )
        assert JobRecord.from_dict(marked.to_dict()) == marked

    def test_resubmission_is_idempotent_while_live(self, queue):
        first, _ = submit(queue)
        for status in ("queued", "claimed", "running", "done"):
            if status != "queued":
                queue.mark("job-a", status)
            _, created = submit(queue)
            assert not created, f"resubmission created a new job at {status}"

    def test_failed_job_is_requeued_by_resubmission(self, queue):
        submit(queue)
        queue.mark("job-a", "failed", error="boom")
        record, created = submit(queue)
        assert created
        assert record.status == "queued"
        assert record.error is None

    def test_cancelled_job_is_requeued_by_resubmission(self, queue):
        submit(queue)
        queue.cancel("job-a")
        record, created = submit(queue)
        assert created and record.status == "queued"

    def test_requeue_count_survives_resubmission(self, queue):
        submit(queue)
        queue.mark("job-a", "claimed")
        queue.mark("job-a", "queued", requeued=True)
        queue.mark("job-a", "failed", error="boom")
        record, _ = submit(queue)
        assert record.requeues == 1

    def test_invalid_submissions_rejected(self, queue):
        with pytest.raises(ServiceError, match="non-empty"):
            queue.submit("", "experiment", {})
        with pytest.raises(ServiceError, match="kind"):
            queue.submit("x", "cron", {})


class TestLifecycle:
    def test_mark_carries_identity_forward(self, queue):
        submit(queue, priority=3)
        running = queue.mark("job-a", "running", owner_pid=os.getpid())
        assert running.priority == 3
        assert running.owner_pid == os.getpid()
        assert running.payload == {"name": "job-a"}
        done = queue.mark("job-a", "done", result={"status": "ok"})
        assert done.terminal
        assert done.result == {"status": "ok"}

    def test_terminal_statuses(self, queue):
        submit(queue)
        for status in TERMINAL_STATUSES:
            assert queue.mark("job-a", status).terminal
        assert not queue.mark("job-a", "queued").terminal

    def test_mark_unknown_job_or_status_rejected(self, queue):
        with pytest.raises(ServiceError, match="unknown job id"):
            queue.mark("ghost", "done")
        submit(queue)
        with pytest.raises(ServiceError, match="status"):
            queue.mark("job-a", "paused")

    def test_cancel_only_queued(self, queue):
        submit(queue)
        assert queue.cancel("job-a").status == "cancelled"
        # Cancelling again is an idempotent no-op.
        assert queue.cancel("job-a").status == "cancelled"
        submit(queue, job_id="job-b")
        queue.mark("job-b", "running", owner_pid=1)
        with pytest.raises(ServiceError, match="only queued"):
            queue.cancel("job-b")
        with pytest.raises(ServiceError, match="unknown job id"):
            queue.cancel("ghost")


class TestDispatchOrder:
    def test_priority_then_age_then_id(self, queue):
        submit(queue, job_id="late-low", priority=0)
        submit(queue, job_id="urgent", priority=5)
        submit(queue, job_id="early-low", priority=0)
        order = [record.job_id for record in queue.pending()]
        # Highest priority first; FIFO (submission time) within a tier.
        assert order == ["urgent", "late-low", "early-low"]

    def test_only_queued_jobs_are_pending(self, queue):
        submit(queue, job_id="a")
        submit(queue, job_id="b")
        queue.mark("a", "claimed")
        assert [r.job_id for r in queue.pending()] == ["b"]


class TestRecovery:
    def test_recover_requeues_all_inflight(self, queue):
        submit(queue, job_id="claimed-one")
        submit(queue, job_id="running-one")
        submit(queue, job_id="done-one")
        queue.mark("claimed-one", "claimed", owner_pid=1)
        queue.mark("running-one", "running", owner_pid=1)
        queue.mark("done-one", "done")
        requeued = queue.recover()
        assert sorted(r.job_id for r in requeued) == [
            "claimed-one", "running-one",
        ]
        assert all(r.status == "queued" for r in requeued)
        assert all(r.requeues == 1 for r in requeued)
        assert queue.get("done-one").status == "done"

    def test_torn_tail_is_quarantined_not_fatal(self, queue):
        submit(queue, job_id="whole")
        with queue.path.open("a", encoding="utf-8") as handle:
            handle.write('{"job_id": "torn", "status": "queu')
        jobs = queue.load()
        assert set(jobs) == {"whole"}
        quarantine = queue.path.with_name(queue.path.name + ".quarantine")
        assert quarantine.is_file()
        assert "torn" in quarantine.read_text(encoding="utf-8")
        # The journal itself was healed: subsequent appends stay valid.
        submit(queue, job_id="after")
        assert set(queue.load()) == {"whole", "after"}

    def test_last_record_per_id_wins(self, queue):
        submit(queue)
        queue.mark("job-a", "claimed")
        queue.mark("job-a", "done")
        lines = queue.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert queue.get("job-a").status == "done"
        assert len(queue) == 1

    def test_concurrent_appends_interleave_safely(self, queue):
        submit(queue)
        script = (
            "import sys; from repro.service import JobQueue; "
            "q = JobQueue(sys.argv[1]); "
            "[q.submit(f'child-{i}', 'experiment', {}) for i in range(20)]"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(queue.root)])
            for _ in range(3)
        ]
        for i in range(20):
            queue.mark("job-a", "running" if i % 2 else "queued")
            queue.load()  # a reader racing the appenders
        while any(proc.poll() is None for proc in procs):
            queue.load()
        assert all(proc.wait() == 0 for proc in procs)
        jobs = queue.load()
        assert len(jobs) == 21
        assert not queue.path.with_name(
            queue.path.name + ".quarantine"
        ).exists()


class TestListing:
    def test_filtering_and_limit(self, queue):
        submit(queue, job_id="a")
        submit(queue, job_id="b")
        queue.submit("c", "campaign", {}, name="c")
        queue.mark("a", "done")
        assert {r.job_id for r in queue.jobs(status="queued")} == {"b", "c"}
        assert [r.job_id for r in queue.jobs(kind="campaign")] == ["c"]
        assert len(queue.jobs(limit=2)) == 2
        with pytest.raises(ServiceError, match="unknown job status"):
            queue.jobs(status="zombie")

    def test_newest_first(self, queue):
        submit(queue, job_id="first")
        submit(queue, job_id="second")
        listed = queue.jobs()
        assert listed[0].job_id in ("first", "second")
        assert listed[0].submitted_at >= listed[1].submitted_at


class TestStaleOwner:
    def test_dead_owner_detected(self, queue):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        submit(queue)
        dead = queue.mark("job-a", "running", owner_pid=proc.pid)
        assert queue.stale_owner(dead)

    def test_live_owner_and_nonrunning_are_not_stale(self, queue):
        submit(queue)
        live = queue.mark("job-a", "running", owner_pid=os.getpid())
        assert not queue.stale_owner(live)
        done = queue.mark("job-a", "done")
        assert not queue.stale_owner(done)
        # Queued jobs have no owner at all.
        record, _ = submit(queue, job_id="job-b")
        assert not queue.stale_owner(record)


def test_journal_lines_are_sorted_json(queue):
    """Journal lines are canonical JSON — diffs and dedup stay stable."""
    submit(queue)
    line = queue.path.read_text(encoding="utf-8").splitlines()[0]
    payload = json.loads(line)
    assert line == json.dumps(payload, sort_keys=True)
