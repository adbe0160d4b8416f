"""The durable job queue: journal discipline, lifecycle, recovery."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import ServiceError
from repro.journal import Journal
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


def _old_pending(queue):
    """The full sort over every job the journal holds."""
    queued = [r for r in queue.load().values() if r.status == "queued"]
    queued.sort(key=lambda r: (-r.priority, r.submitted_at, r.job_id))
    return queued


def _line(job_id, status, priority=0, submitted_at=1.0):
    return JobRecord(
        job_id=job_id, kind="experiment", payload={"name": job_id},
        priority=priority, status=status, submitted_at=submitted_at,
        updated_at=submitted_at,
    ).to_dict()


def _write_journal(queue, lines):
    queue.root.mkdir(parents=True, exist_ok=True)
    queue.path.write_text(
        "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines),
        encoding="utf-8",
    )


class TestQueuedIndex:
    @pytest.fixture()
    def mixed(self, queue):
        """Jobs in every state, with tied priorities and ages."""
        for index in range(24):
            submit(queue, job_id=f"job-{index:02d}", priority=index % 3)
        for index in range(0, 24, 4):
            queue.mark(f"job-{index:02d}", "claimed", owner_pid=1)
        for index in range(1, 24, 4):
            queue.mark(f"job-{index:02d}", "done")
        queue.mark("job-02", "cancelled")
        queue.mark("job-00", "queued", requeued=True)
        submit(queue, job_id="job-01")  # done: not re-queued
        return queue

    def test_pending_equals_the_full_sort(self, mixed):
        assert mixed.pending() == _old_pending(mixed)
        assert mixed.pending(limit=4) == _old_pending(mixed)[:4]
        assert mixed.pending(limit=0) == []

    def test_pending_after_compaction(self, mixed):
        assert mixed.journal.compact() > 0
        fresh = JobQueue(mixed.root)
        assert mixed.pending() == fresh.pending() == _old_pending(fresh)
        mixed.mark("job-03", "claimed")
        assert "job-03" not in [r.job_id for r in mixed.pending()]
        assert mixed.pending() == _old_pending(JobQueue(mixed.root))

    @pytest.mark.parametrize("how", ["in_place", "replaced"])
    def test_pending_after_an_external_rewrite(self, mixed, how):
        assert mixed.pending()
        lines = [
            _line("new-a", "queued", priority=1, submitted_at=5.0),
            _line("new-b", "queued", submitted_at=2.0),
            _line("job-03", "done"),
        ]
        if how == "in_place":
            _write_journal(mixed, lines)
        else:
            tmp = mixed.root / "rewrite.tmp"
            tmp.write_text(
                "".join(json.dumps(line) + "\n" for line in lines),
                encoding="utf-8",
            )
            os.replace(tmp, mixed.path)
        assert [r.job_id for r in mixed.pending()] == ["new-a", "new-b"]
        assert mixed.pending() == _old_pending(mixed)

    def test_pending_builds_records_for_queued_jobs_only(
        self, queue, monkeypatch
    ):
        """A long history costs a dispatch nothing: 10,000 terminal jobs
        and 3 queued ones build 3 records, and the fold is not copied."""
        terminal = [
            _line(f"old-{index:05d}", TERMINAL_STATUSES[index % 3])
            for index in range(10_000)
        ]
        queued = [_line(f"new-{index}", "queued") for index in range(3)]
        _write_journal(queue, terminal + queued)
        built = []
        from_dict = JobRecord.from_dict.__func__

        def spy(cls, payload):
            built.append(payload["job_id"])
            return from_dict(cls, payload)

        monkeypatch.setattr(JobRecord, "from_dict", classmethod(spy))
        monkeypatch.setattr(
            Journal, "load", lambda self: pytest.fail("fold copied")
        )
        assert [r.job_id for r in queue.pending()] == [
            "new-0", "new-1", "new-2",
        ]
        assert len(built) == 3
        assert [r.job_id for r in queue.pending(limit=1)] == ["new-0"]
        assert len(built) == 4
