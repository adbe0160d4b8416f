"""The shared JSONL journal: torn-line policy per file, compaction under
the lock, incremental reads that notice a replaced file, and flat
per-operation cost for long-lived owners."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cache import DiskCache, computed_events
from repro.campaign.store import ResultStore
from repro.errors import ObsError
from repro.obs import RunRegistry, TraceTail, bench, load_trace
from repro.obs.events import metric_event
from repro.service.queue import JobQueue

DATA = Path(__file__).parent / "obs" / "data"

#: A writer killed mid-line left this (no newline).
TORN = b'{"torn": "rec'


def _store(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    return (
        store.path,
        lambda i: store.append({"hash": f"h{i}", "status": "ok"}),
        lambda: len(ResultStore(store.path).load()),
    )


def _jobs(tmp_path):
    queue = JobQueue(tmp_path)
    return (
        queue.path,
        lambda i: queue.submit(f"job-{i}", "experiment", {}),
        lambda: len(JobQueue(tmp_path).load()),
    )


def _registry(tmp_path):
    registry = RunRegistry(tmp_path)
    return (
        registry.path,
        lambda i: registry.register(f"run-{i}"),
        lambda: len(RunRegistry(tmp_path).load()),
    )


def _cache_events(tmp_path):
    cache = DiskCache(tmp_path)
    return (
        cache.events_path,
        lambda i: cache.get_or_compute({"x": i}, lambda: i),
        lambda: len(computed_events(tmp_path)),
    )


def _bench_history(tmp_path):
    path = tmp_path / "history.jsonl"

    def append(i):
        event = metric_event(
            trace="bench", name=f"m{i}", kind="gauge", value=float(i),
            t=1.0, pid=1, attrs={},
        )
        bench.append_history([event], path=path, revision="abc")

    return path, append, lambda: len(bench.load_history(path))


@pytest.mark.parametrize(
    "owner",
    [_store, _jobs, _registry, _cache_events, _bench_history],
    ids=["store", "jobs", "registry", "cache_events", "bench_history"],
)
def test_quarantine_policy(tmp_path, owner):
    """Every operational journal seals a torn tail on append, copies the
    torn line to its ``.quarantine`` side file on read, and loads every
    good record."""
    path, append, count = owner(tmp_path)
    append(0)
    with path.open("ab") as handle:
        handle.write(TORN)
    append(1)
    assert TORN in path.read_bytes().split(b"\n")  # sealed: its own line
    assert count() == 2
    side = path.with_name(path.name + ".quarantine")
    assert side.read_bytes().splitlines() == [TORN]


def test_trace_sink_seals_and_report_raises_with_the_line(tmp_path):
    sink = tmp_path / "trace.jsonl"
    obs.enable(sink, run_id="torn-trace")
    try:
        with sink.open("ab") as handle:
            handle.write(TORN)
        obs.counter("after", 1)
        obs.flush()
    finally:
        obs.disable()
    lines = sink.read_bytes().split(b"\n")
    assert lines[1] == TORN
    json.loads(lines[2])
    with pytest.raises(ObsError, match=f"{sink}:2: not valid JSON"):
        load_trace(sink)
    assert not sink.with_name(sink.name + ".quarantine").exists()


def test_append_during_compaction_is_kept(tmp_path, monkeypatch):
    """A record another process appends while a compaction is between
    its fold and its replace lands in the compacted file."""
    store = ResultStore(tmp_path / "c.jsonl")
    store.append({"hash": "a", "status": "ok", "result": 1})
    store.append({"hash": "a", "status": "ok", "result": 2})
    ready = tmp_path / "ready"
    script = (
        "import sys; from pathlib import Path; "
        "from repro.campaign.store import ResultStore; "
        "Path(sys.argv[2]).touch(); "
        "ResultStore(sys.argv[1]).append("
        "{'hash': 'b', 'status': 'ok', 'result': 3})"
    )
    real_replace = os.replace
    children = []

    def paused_replace(src, dst):
        children.append(subprocess.Popen(
            [sys.executable, "-c", script, str(store.path), str(ready)]
        ))
        deadline = time.monotonic() + 10.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # an unlocked compaction lets the append land
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", paused_replace)
    assert store.compact() == 1
    monkeypatch.undo()
    assert children[0].wait(10) == 0
    records = ResultStore(store.path).load()
    assert {h: r["result"] for h, r in records.items()} == {"a": 2, "b": 3}


def test_tail_rereads_a_sink_that_regrew_past_its_offset(tmp_path):
    """A re-run truncates the sink; if it grows past the old offset
    before the next poll, the tail must start over, not read mid-line."""
    events = load_trace(DATA / "mini_partial.jsonl")
    sink = tmp_path / "t.jsonl"
    sink.write_text(json.dumps(events[0]) + "\n")
    tail = TraceTail(sink)
    assert tail.poll() == events[:1]
    sink.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events[1:4])
    )
    assert tail.poll() == events[1:4]


def _lifecycle(queue: JobQueue, job_id: str) -> None:
    queue.submit(job_id, "campaign", {"points": [1, 2]}, name=job_id)
    queue.mark(job_id, "claimed", owner_pid=1)
    queue.mark(job_id, "running", owner_pid=2)
    queue.mark(job_id, "done", result={"status": "ok"})


def test_long_lived_queue_parses_only_the_new_bytes(tmp_path):
    queue = JobQueue(tmp_path)
    for index in range(2000):
        _lifecycle(queue, f"job-{index:04d}")
    writer = JobQueue(tmp_path)
    assert queue.get("job-1999").status == "done"
    for step in range(4):
        parsed, size = queue.journal.parsed_bytes, queue.path.stat().st_size
        if step == 0:
            writer.submit("late", "experiment", {"name": "late"})
        else:
            writer.mark("late", ("claimed", "running", "done")[step - 1])
        record = queue.get("late")
        assert queue.journal.parsed_bytes - parsed == (
            queue.path.stat().st_size - size
        )
    assert record.status == "done"
    assert record.payload == {"name": "late"}


def test_full_record_journals_fold_like_delta_journals(tmp_path):
    """A journal whose every line is the job's full record (the format
    before delta lines) folds to the same jobs, resubmission included."""
    queue = JobQueue(tmp_path / "delta")
    full = tmp_path / "full" / "jobs.jsonl"
    full.parent.mkdir()

    def snapshot(job_id):
        with full.open("a", encoding="utf-8") as handle:
            record = queue.get(job_id).to_dict()
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    steps = [
        lambda: queue.submit("a", "experiment", {"x": 1}, name="a"),
        lambda: queue.mark("a", "running", owner_pid=7),
        lambda: queue.mark("a", "failed", error="boom", result={"n": 1}),
        lambda: queue.submit("a", "experiment", {"x": 2}, name="a"),
        lambda: queue.mark("a", "queued", requeued=True),
        lambda: queue.submit("b", "campaign", {"y": 1}, priority=3),
        lambda: queue.mark("b", "done", result={"ok": True}),
    ]
    for step in steps:
        record = step()
        snapshot(record[0].job_id if isinstance(record, tuple)
                 else record.job_id)
    folded = JobQueue(full.parent).load()
    assert folded == queue.load()
    assert folded["a"].error is None and folded["a"].requeues == 1
    assert b'"payload"' not in queue.path.read_bytes().splitlines()[1]


def test_shared_queue_is_thread_safe(tmp_path):
    """The daemon's socket thread and scheduler share one queue."""
    queue = JobQueue(tmp_path)
    errors: list[BaseException] = []
    done = threading.Event()

    def write():
        try:
            for index in range(150):
                _lifecycle(queue, f"job-{index:03d}")
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    def read():
        try:
            while not done.is_set():
                queue.get("job-000")
                queue.pending()
                len(queue)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert queue.load() == JobQueue(tmp_path).load()
    assert {job.status for job in queue.load().values()} == {"done"}
    assert not queue.path.with_name(queue.path.name + ".quarantine").exists()
