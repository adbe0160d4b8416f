"""Tracer correctness: span trees, metric folding, worker propagation.

The load-bearing property is the last test: a 4-worker pool whose
children never call ``enable()`` still lands every span in the owner's
sink, parented onto the span the owner exported — that is what makes
``repro report`` draw one tree across the process boundary.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs
from repro.errors import ObsError
from repro.obs import TraceFold, load_trace, span_totals


def _events_by_kind(path):
    events = load_trace(path)
    return {
        kind: [e for e in events if e["event"] == kind]
        for kind in ("run", "span", "metric")
    }


def test_disabled_probes_are_no_ops(tmp_path):
    assert not obs.enabled()
    span = obs.span("anything", detail=1)
    assert span.span_id is None
    with span:
        obs.counter("ignored")
        obs.gauge("ignored", 1.0)
        obs.observe("ignored", 1.0)
    assert span.set(more=2) is span
    assert obs.current_span_id() is None
    assert obs.trace_path() is None
    assert list(tmp_path.iterdir()) == []


def test_nested_spans_parent_correctly(tmp_path):
    sink = tmp_path / "t.jsonl"
    obs.enable(sink, run_id="nesting", name="nesting")
    with obs.span("outer") as outer:
        with obs.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert obs.current_span_id() == inner.span_id
        with obs.span("sibling") as sibling:
            assert sibling.parent_id == outer.span_id
    obs.disable()

    by_kind = _events_by_kind(sink)
    assert [e["name"] for e in by_kind["run"]] == ["nesting"]
    spans = {e["name"]: e for e in by_kind["span"]}
    assert spans["outer"]["parent"] is None
    assert spans["inner"]["parent"] == spans["outer"]["span"]
    assert spans["sibling"]["parent"] == spans["outer"]["span"]
    # Spans close inner-first, so the file orders children before
    # parents — the report's path resolver does not rely on order.
    totals = span_totals(load_trace(sink))
    assert totals[("outer", "inner")]["count"] == 1


def test_exception_marks_span_failed(tmp_path):
    sink = tmp_path / "t.jsonl"
    obs.enable(sink, run_id="failing")
    with pytest.raises(ValueError):
        with obs.span("doomed"):
            raise ValueError("boom")
    obs.disable()
    (span,) = _events_by_kind(sink)["span"]
    assert span["status"] == "failed"
    assert span["error"] == "ValueError: boom"


def test_metrics_fold_per_flush(tmp_path):
    sink = tmp_path / "t.jsonl"
    obs.enable(sink, run_id="metrics")
    with obs.span("work"):
        for _ in range(1000):
            obs.counter("ticks")
        obs.counter("bytes", 512.0)
        obs.observe("wait_s", 0.2)
        obs.observe("wait_s", 0.4)
        obs.gauge("rate", 10.0)
        obs.gauge("rate", 20.0)
    obs.disable()

    folded = TraceFold(load_trace(sink)).metrics
    assert folded["ticks"] == {"kind": "counter", "value": 1000.0}
    assert folded["bytes"]["value"] == 512.0
    assert folded["wait_s"]["value"] == {
        "count": 2, "sum": 0.6000000000000001, "min": 0.2, "max": 0.4,
    }
    # Gauges write through individually; the fold keeps the last write.
    assert folded["rate"] == {"kind": "gauge", "value": 20.0}
    # 1000 counter increments fold to one event per flush, not 1000.
    metric_events = _events_by_kind(sink)["metric"]
    assert len([e for e in metric_events if e["name"] == "ticks"]) == 1


def test_enable_guards(tmp_path):
    with pytest.raises(ObsError, match="non-empty"):
        obs.enable(tmp_path / "t.jsonl", run_id="")
    obs.enable(tmp_path / "t.jsonl", run_id="first")
    with pytest.raises(ObsError, match="already enabled"):
        obs.enable(tmp_path / "other.jsonl", run_id="second")
    obs.disable()


def test_start_run_is_gated_on_configuration(tmp_path):
    # Unconfigured: a library start_run must stay a no-op.
    assert obs.start_run("some-run") is False
    assert not obs.enabled()

    obs.set_trace_dir(tmp_path)
    assert obs.start_run("keyed-run", name="exp") is True
    assert obs.trace_path() == tmp_path / "keyed-run.jsonl"
    assert obs.trace_run_id() == "keyed-run"
    # A nested start_run joins the active trace instead of replacing it.
    assert obs.start_run("inner-run") is False
    assert obs.trace_run_id() == "keyed-run"
    obs.disable()
    obs.set_trace_dir(None)


def test_rerun_truncates_stale_trace(tmp_path):
    sink = tmp_path / "t.jsonl"
    for _ in range(2):
        obs.enable(sink, run_id="rerun")
        with obs.span("only"):
            pass
        obs.disable()
    assert len(_events_by_kind(sink)["span"]) == 1


def _pool_worker(index: int) -> tuple[int, str | None]:
    """Top-level for picklability; workers never call enable()."""
    with obs.span("unit", index=index) as span:
        obs.counter("units.done")
        return os.getpid(), span.parent_id


def test_four_worker_pool_spans_parent_onto_owner(tmp_path):
    sink = tmp_path / "pool.jsonl"
    obs.enable(sink, run_id="pool-run", name="pool")
    with obs.span("owner") as owner:
        with obs.worker_parent(owner.span_id):
            pool = multiprocessing.Pool(processes=4)
        with pool:
            results = pool.map(_pool_worker, range(12))
    obs.disable()

    # Every worker saw the exported parent id at span-open time.
    assert {parent for _pid, parent in results} == {owner.span_id}

    by_kind = _events_by_kind(sink)
    units = [e for e in by_kind["span"] if e["name"] == "unit"]
    assert len(units) == 12
    assert {e["parent"] for e in units} == {owner.span_id}
    assert sorted(e["attrs"]["index"] for e in units) == list(range(12))
    # Span ids embed the pid, so cross-process ids can never collide.
    assert len({e["span"] for e in by_kind["span"]}) == 13
    worker_pids = {e["pid"] for e in units}
    assert worker_pids == {pid for pid, _parent in results}
    assert os.getpid() not in worker_pids

    # Worker counters merged across processes at read time.
    folded = TraceFold(load_trace(sink)).metrics
    assert folded["units.done"]["value"] == 12.0
