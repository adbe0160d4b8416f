"""obs.run_lifecycle: one run's sink and registry record, start to end."""

from __future__ import annotations

import contextlib
import json
import shutil

import pytest

from repro import obs
from repro.errors import RunInterrupted
from repro.journal import Journal
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


#: Measured per run, so they differ between any two terminal lines.
TIMING_FIELDS = ("ended_at", "wall_s", "cpu_s", "peak_rss_bytes")


def _lines(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


@pytest.mark.parametrize("outcome", ["ok", "n_failed", "raise"])
def test_terminal_line_equals_finalize_on_the_same_registry(
    tmp_path, outcome
):
    """A lifecycle builds its terminal line from its own registration;
    ``RunRegistry.finalize`` on a copy of the registry as it stood at
    registration writes the same line, timing fields aside."""
    trace_dir, copy_dir = tmp_path / "trace", tmp_path / "copy"
    obs.set_trace_dir(trace_dir)
    with contextlib.suppress(ValueError):
        with lifecycle() as handle:
            copy_dir.mkdir()
            shutil.copy(trace_dir / "registry.jsonl", copy_dir)
            handle.metrics.update(n_points=3, n_failed=0)
            if outcome == "n_failed":
                handle.metrics["n_failed"] = 2
            elif outcome == "raise":
                raise ValueError("boom")
    registered, terminal = _lines(trace_dir / "registry.jsonl")
    assert registered["status"] == "running"
    reference = RunRegistry(copy_dir).finalize(
        "life-abc123", terminal["status"], metrics=terminal["metrics"],
        error=terminal.get("error"),
    ).to_dict()
    for name in TIMING_FIELDS:
        assert name in terminal
        reference.pop(name, None)
        terminal.pop(name)
    assert terminal == reference
    assert terminal["status"] == {
        "ok": "ok", "n_failed": "failed", "raise": "failed",
    }[outcome]


def test_finalize_parses_no_registry_byte(tmp_path, monkeypatch):
    """Ending a run costs the same after 200 earlier runs as after
    none: its terminal line is built without reading the registry."""
    registry = RunRegistry(tmp_path)
    for index in range(200):
        registry.register(f"earlier-{index:03d}", name="earlier")
        registry.finalize(f"earlier-{index:03d}", "ok")
    parsed = []
    read = Journal.read

    def spy(self, final=False):
        records = read(self, final)
        if self.path.name == "registry.jsonl":
            parsed.append(self.parsed_bytes)
        return records

    monkeypatch.setattr(Journal, "read", spy)
    obs.set_trace_dir(tmp_path)
    with lifecycle():
        pass
    assert sum(parsed) == 0
    assert RunRegistry(tmp_path).get("life-abc123").status == "ok"
