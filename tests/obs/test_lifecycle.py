"""obs.run_lifecycle: one run's sink and registry record, start to end."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import RunInterrupted
from repro.obs import RunRecord, RunRegistry, host_metadata, pid_alive
from repro.service.queue import JobQueue, JobRecord


def lifecycle(run_id="life-abc123"):
    return obs.run_lifecycle(
        run_id, name="life", kind="sweep", spec_digest="d1g3st",
        attrs={"kind": "sweep"},
    )


def test_pid_alive_rejects_process_group_pids():
    # os.kill(0, 0) / os.kill(-1, 0) signal process groups and succeed.
    assert not pid_alive(0)
    assert not pid_alive(-1)


def test_pid_zero_owner_is_stale(tmp_path):
    record = RunRecord(run_id="r", pid=0, host=host_metadata())
    assert record.is_stale()
    job = JobRecord(job_id="j", kind="campaign", status="running",
                    owner_pid=0)
    assert JobQueue(tmp_path).stale_owner(job)


def test_untraced_run_registers_nothing(tmp_path):
    with lifecycle() as handle:
        assert not handle.enabled
        assert handle.trace_path is None and handle.trace_run is None
    assert handle.wall_s is not None and handle.wall_s >= 0.0
    assert list(tmp_path.iterdir()) == []


def test_traced_run_registers_then_finalizes_ok(tmp_path):
    obs.set_trace_dir(tmp_path)
    with lifecycle() as handle:
        assert handle.enabled and handle.trace_run == "life-abc123"
        assert handle.trace_path == tmp_path / "life-abc123.jsonl"
        running = RunRegistry(tmp_path).get("life-abc123")
        assert running.status == "running"
        assert running.spec_digest == "d1g3st"
        handle.metrics.update(n_points=3, n_failed=0)
    assert not obs.enabled()
    record = RunRegistry(tmp_path).get("life-abc123")
    assert record.status == "ok"
    assert record.metrics == {"n_points": 3, "n_failed": 0}
    assert record.wall_s == handle.wall_s
    assert record.cpu_s is not None and record.error is None


def test_failed_points_mark_the_run_failed(tmp_path):
    obs.set_trace_dir(tmp_path)
    with lifecycle() as handle:
        handle.metrics["n_failed"] = 2
    record = RunRegistry(tmp_path).get("life-abc123")
    assert record.status == "failed"
    assert record.error == "2 point(s) failed"


@pytest.mark.parametrize(
    "exc, status",
    [(RunInterrupted("stop"), "interrupted"),
     (KeyboardInterrupt(), "interrupted"),
     (ValueError("boom"), "failed")],
)
def test_exceptions_set_the_terminal_status(tmp_path, exc, status):
    obs.set_trace_dir(tmp_path)
    with pytest.raises(type(exc)):
        with lifecycle():
            raise exc
    assert not obs.enabled()
    record = RunRegistry(tmp_path).get("life-abc123")
    assert record.status == status
    assert record.error.startswith(type(exc).__name__)


def test_nested_run_leaves_the_outer_sink_alone(tmp_path):
    obs.set_trace_dir(tmp_path)
    with lifecycle("outer-run"):
        with lifecycle("inner-run") as inner:
            assert inner.trace_run == "outer-run"
        assert obs.enabled()
    registry = RunRegistry(tmp_path)
    assert registry.get("inner-run") is None
    assert registry.get("outer-run").status == "ok"
