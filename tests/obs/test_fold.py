"""TraceFold: one incremental fold, pinned to the per-call folds it replaced.

``metric_totals``, ``metric_series`` and ``summarize`` below are the
whole-trace folds that ``repro report``, ``repro watch``, the diff and
the alert rules each re-ran over every event, kept verbatim as the
reference.  :class:`~repro.obs.report.TraceFold` must equal them by
``==`` on every committed trace and on generated streams, however the
stream is chunked — and a watch frame must not read an absorbed metric
event again.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    RESILIENCE_COUNTERS,
    TraceFold,
    WatchState,
    load_trace,
    render_frame,
    span_totals,
)
from repro.obs.alerts import AlertRule, evaluate_rules
from repro.obs.events import (
    histogram_summary,
    metric_event,
    run_event,
    span_event,
)

DATA = Path(__file__).parent / "data"

# --------------------------------------------------------------------------
# The reference: the per-call folds, verbatim
# --------------------------------------------------------------------------


def metric_totals(events: list[dict]) -> dict[str, dict]:
    """Fold metric events by name: summed counters, merged histograms.

    Returns ``{name: {"kind": ..., "value": ...}}`` where a counter's
    value is the sum of its deltas, a gauge's is its last write, and a
    histogram's is the merged ``{count, sum, min, max}`` summary.
    """
    folded: dict[str, dict] = {}
    for event in events:
        if event["event"] != "metric":
            continue
        name, kind, value = event["name"], event["kind"], event["value"]
        slot = folded.get(name)
        if slot is None:
            folded[name] = {
                "kind": kind,
                "value": dict(value) if kind == "histogram" else value,
            }
            continue
        if kind == "counter":
            slot["value"] += value
        elif kind == "gauge":
            slot["value"] = value
        elif kind == "histogram":
            merged = slot["value"]
            merged["count"] += value["count"]
            merged["sum"] += value["sum"]
            merged["min"] = min(merged["min"], value["min"])
            merged["max"] = max(merged["max"], value["max"])
    return folded


def metric_series(
    events: list[dict],
) -> dict[tuple[str, tuple], dict[str, Any]]:
    """Fold metric events by ``(name, attrs)`` instead of name alone.

    :func:`metric_totals` collapses a metric's attribute dimensions —
    right for the report's one-line-per-metric table, wrong for
    consumers that need the dimensions: alert rules scoped to one
    phenotype, or a watch dashboard showing per-campaign progress
    gauges.  Returns ``{(name, sorted attr items): {"kind", "value",
    "t", "attrs"}}`` with the same per-kind folding as
    :func:`metric_totals` (counters sum, gauges keep the latest write
    by timestamp, histograms merge), plus the folded series' last
    event time.
    """
    folded: dict[tuple[str, tuple], dict[str, Any]] = {}
    for event in events:
        if event["event"] != "metric":
            continue
        attrs = event.get("attrs", {})
        key = (event["name"], tuple(sorted(attrs.items())))
        kind, value, t = event["kind"], event["value"], event["t"]
        slot = folded.get(key)
        if slot is None:
            folded[key] = {
                "kind": kind,
                "value": dict(value) if kind == "histogram" else value,
                "t": t,
                "attrs": dict(attrs),
            }
            continue
        if kind == "counter":
            slot["value"] += value
        elif kind == "gauge":
            if t >= slot["t"]:
                slot["value"] = value
        elif kind == "histogram":
            merged = slot["value"]
            merged["count"] += value["count"]
            merged["sum"] += value["sum"]
            merged["min"] = min(merged["min"], value["min"])
            merged["max"] = max(merged["max"], value["max"])
        slot["t"] = max(slot["t"], t)
    return folded


def summarize(events: list[dict]) -> dict[str, Any]:
    """One pass over a trace into the structure the renderer prints.

    Keys: ``run`` (the run marker or None), ``wall_s``, ``tree`` (the
    :func:`span_totals` aggregate), ``metrics`` (:func:`metric_totals`),
    ``workers`` (per-pid busy seconds/span counts), ``resources``
    (per-pid peak RSS / cumulative CPU from the ``proc.*`` gauges),
    ``slowest`` (spans sorted by duration, longest first), ``failed``
    (failed span events), ``cache`` (``lookups``, ``memory_hit``,
    ``disk_hit``, ``computed``, ``hit_rate``; empty without cache
    counters) and ``resilience`` (non-zero :data:`RESILIENCE_COUNTERS`).
    """
    runs = [event for event in events if event["event"] == "run"]
    spans = [event for event in events if event["event"] == "span"]
    run = runs[0] if runs else None

    starts = [event["t"] for event in events]
    ends = [
        event["t"] + (event["dur_s"] if event["event"] == "span" else 0.0)
        for event in events
    ]
    wall_s = (max(ends) - min(starts)) if events else 0.0

    by_id = {event["span"]: event for event in spans}
    workers: dict[int, dict] = {}
    for event in spans:
        slot = workers.setdefault(
            event["pid"], {"busy_s": 0.0, "spans": 0}
        )
        slot["spans"] += 1
        parent = event.get("parent")
        # Busy time counts only process-root spans (those whose parent
        # lives in another process or nowhere); nested spans would
        # double-count their parents' wall time.
        parent_event = by_id.get(parent) if parent is not None else None
        if parent_event is None or parent_event["pid"] != event["pid"]:
            slot["busy_s"] += float(event["dur_s"])

    # Per-process resource readings from the throttled proc.* gauges:
    # peak RSS is the max ever seen, CPU is cumulative (process_time),
    # so the latest write per pid wins.
    resources: dict[int, dict] = {}
    for event in events:
        if event["event"] != "metric" or event["kind"] != "gauge":
            continue
        name = event["name"]
        if name not in ("proc.rss_bytes", "proc.cpu_s"):
            continue
        slot = resources.setdefault(
            event["pid"],
            {"peak_rss_bytes": None, "cpu_s": None, "_cpu_t": 0.0},
        )
        value = float(event["value"])
        if name == "proc.rss_bytes":
            if slot["peak_rss_bytes"] is None or value > slot["peak_rss_bytes"]:
                slot["peak_rss_bytes"] = value
        elif event["t"] >= slot["_cpu_t"]:
            slot["cpu_s"] = value
            slot["_cpu_t"] = event["t"]
    for slot in resources.values():
        slot.pop("_cpu_t")

    metrics = metric_totals(events)
    cache: dict[str, Any] = {}
    if any(name in metrics for name in _CACHE_COUNTERS):
        cache = {
            name.split(".", 1)[1]: metrics.get(name, {}).get("value", 0.0)
            for name in _CACHE_COUNTERS
        }
        hits = cache["memory_hit"] + cache["disk_hit"]
        cache["lookups"] = lookups = hits + cache["computed"]
        cache["hit_rate"] = hits / lookups if lookups else None

    return {
        "run": run,
        "wall_s": wall_s,
        "events": len(events),
        "spans": len(spans),
        "tree": span_totals(events),
        "metrics": metrics,
        "workers": workers,
        "resources": resources,
        "slowest": sorted(
            spans, key=lambda event: event["dur_s"], reverse=True
        ),
        "failed": [event for event in spans if event["status"] == "failed"],
        "cache": cache,
        "resilience": {
            name: int(metrics[name]["value"])
            for name in RESILIENCE_COUNTERS
            if name in metrics and metrics[name]["value"]
        },
    }


_CACHE_COUNTERS = ("cache.memory_hit", "cache.disk_hit", "cache.computed")

# --------------------------------------------------------------------------
# Comparison helpers
# --------------------------------------------------------------------------


def views(fold: TraceFold) -> dict[str, Any]:
    """Every view of a fold, keyed like the reference summary."""
    return {
        "run": fold.run,
        "wall_s": fold.wall_s,
        "events": fold.n_events,
        "spans": len(fold.spans),
        "tree": fold.tree(),
        "metrics": fold.metrics,
        "workers": fold.workers(),
        "resources": fold.resources,
        "failed": fold.failed(),
        "cache": fold.cache(),
        "resilience": fold.resilience(),
        "series": fold.series,
        "span_events": fold.spans,
        "trace_id": fold.trace_id,
        "last_t_by_pid": fold.last_t_by_pid,
    }


def assert_matches_reference(events: list[dict]) -> None:
    fold = TraceFold(events)
    reference = summarize(events)
    assert reference.pop("slowest") == sorted(
        fold.spans, key=lambda event: event["dur_s"], reverse=True
    )
    got = views(fold)
    assert got.pop("series") == metric_series(events)
    assert got.pop("span_events") == [
        event for event in events if event["event"] == "span"
    ]
    assert got.pop("trace_id") == (events[0]["trace"] if events else None)
    last_t: dict[int, float] = {}
    for event in events:
        pid = event["pid"]
        last_t[pid] = max(last_t.get(pid, event["t"]), event["t"])
    assert got.pop("last_t_by_pid") == last_t
    assert got == reference
    assert fold.metrics == metric_totals(events)


# --------------------------------------------------------------------------
# Committed traces
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "path", sorted(DATA.glob("*.jsonl")), ids=lambda path: path.name
)
def test_fold_equals_reference_on_committed_traces(path):
    assert_matches_reference(load_trace(path))


def test_empty_trace():
    assert_matches_reference([])
    fold = TraceFold()
    assert (fold.n_events, fold.wall_s, fold.trace_id) == (0, 0.0, None)


# --------------------------------------------------------------------------
# Generated streams
# --------------------------------------------------------------------------

#: name -> kind; a metric name keeps one kind, as every writer does.
_METRICS = {
    "items": "counter",
    "bytes_f": "counter",
    "cache.memory_hit": "counter",
    "cache.disk_hit": "counter",
    "cache.computed": "counter",
    "work.retries": "counter",
    "fleet.quality_p10_db": "gauge",
    "run.progress": "gauge",
    "proc.rss_bytes": "gauge",
    "proc.cpu_s": "gauge",
    "store.append_s": "histogram",
}
_ATTRS = [{}, {"phenotype": "100"}, {"phenotype": "119"},
          {"phenotype": "100", "policy": "static"}]
_pids = st.sampled_from([1, 2, 3])
_times = st.floats(0.0, 50.0)
_durations = st.floats(0.0, 5.0)


@st.composite
def _metric(draw) -> dict:
    name = draw(st.sampled_from(sorted(_METRICS)))
    kind = _METRICS[name]
    if kind == "histogram":
        low = draw(st.floats(0.0, 1.0))
        high = low + draw(st.floats(0.0, 1.0))
        value: Any = histogram_summary(
            draw(st.integers(1, 5)), draw(st.floats(0.0, 10.0)), low, high
        )
    elif name == "items":
        value = draw(st.integers(0, 10))
    else:
        value = draw(st.floats(0.0, 100.0))
    return metric_event(
        "gen", name, kind, value, t=draw(_times), pid=draw(_pids),
        attrs=draw(st.sampled_from(_ATTRS)),
    )


@st.composite
def streams(draw) -> list[dict]:
    """Spans with children before parents, parents that never close
    and cross-pid parents; metrics from several pids out of ``t`` order;
    zero, one or two run markers — all in a drawn order."""
    n_spans = draw(st.integers(0, 10))
    ids = [f"s{index}" for index in range(n_spans)]
    events = [
        span_event(
            "gen", span_id,
            draw(st.one_of(st.none(), st.sampled_from(ids + ["never-closed"]))),
            draw(st.sampled_from(["point", "calibrate", "campaign"])),
            t=draw(_times), dur_s=draw(_durations), pid=draw(_pids),
            status=draw(st.sampled_from(["ok", "failed"])),
            cpu_s=draw(st.one_of(st.none(), _durations)),
        )
        for span_id in ids
    ]
    events += draw(st.lists(_metric(), max_size=30))
    for index in range(draw(st.integers(0, 2))):
        events.append(
            run_event(f"run-{index}", "gen", t=draw(_times), pid=draw(_pids))
        )
    return draw(st.permutations(events))


@settings(max_examples=200, deadline=None)
@given(streams())
def test_fold_equals_reference_on_generated_streams(events):
    assert_matches_reference(events)


@settings(max_examples=200, deadline=None)
@given(streams(), st.data())
def test_chunked_absorb_equals_one_absorb(events, data):
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, len(events)), max_size=6), label="cuts"
        )
    )
    chunked = TraceFold()
    for start, end in zip([0] + cuts, cuts + [len(events)]):
        chunked.add(events[start:end])
    assert views(chunked) == views(TraceFold(events))


# --------------------------------------------------------------------------
# Watch frames read no absorbed metric event again
# --------------------------------------------------------------------------


class _CountingEvent(dict):
    """A metric event that counts every keyed read of itself."""

    reads = 0

    def __getitem__(self, key):
        type(self).reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        type(self).reads += 1
        return super().get(key, default)


def test_frames_read_no_absorbed_metric_event():
    plain = load_trace(DATA / "mini_b.jsonl") + [
        metric_event("mini-b", "proc.cpu_s", "gauge", 1.0, t=2.0, pid=7),
        metric_event("mini-b", "rows_per_s", "gauge", 9.0, t=2.0, pid=7),
    ]
    events = [
        _CountingEvent(event) if event["event"] == "metric" else event
        for event in plain
    ]
    rules = [
        AlertRule(name="floor", metric="fleet.quality_p10_db", min=2.0,
                  attrs={"phenotype": "119"}),
        AlertRule(name="mean", metric="store.append_s", max=0.01),
        AlertRule(name="warm", metric="cache.hit_rate", min=0.5),
        AlertRule(name="spans", metric="spans.failed", max=0),
        AlertRule(name="wall", metric="wall_s", max=10.0),
    ]
    state = WatchState()
    state.update(events)
    assert _CountingEvent.reads > 0

    _CountingEvent.reads = 0
    for _frame in range(3):
        outcomes = evaluate_rules(rules, state.fold)
        render_frame(state.snapshot(), outcomes)
    assert _CountingEvent.reads == 0
    assert outcomes == evaluate_rules(rules, TraceFold(plain))
    reference = WatchState()
    reference.update(plain)
    assert state.snapshot() == reference.snapshot()
