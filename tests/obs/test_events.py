"""Schema contract: constructors and the validator agree, bytes round-trip.

The event schema is the one format every observability artefact speaks
(run traces, the cache event log's counters, BENCH benchmark records),
so the writer-side constructors and the reader-side
:func:`~repro.obs.events.validate_event` must stay in lock-step — and a
payload must survive a JSON round-trip unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs import TraceFold, load_events, load_trace, render_report
from repro.obs.events import (
    SCHEMA_VERSION,
    histogram_summary,
    metric_event,
    run_event,
    span_event,
    validate_event,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _sample_events() -> list[dict]:
    return [
        run_event("run-1", "demo", t=100.0, pid=7, attrs={"kind": "test"}),
        span_event(
            "run-1", span="7.1", parent=None, name="outer",
            t=100.0, dur_s=0.5, pid=7, attrs={"step": 1},
        ),
        span_event(
            "run-1", span="7.2", parent="7.1", name="inner",
            t=100.1, dur_s=0.2, pid=7, status="failed",
            error="ValueError: boom",
        ),
        metric_event("run-1", "items", "counter", 3.0, t=100.5, pid=7),
        metric_event("run-1", "rate", "gauge", 12.5, t=100.5, pid=7),
        metric_event(
            "run-1", "latency_s", "histogram",
            histogram_summary(4, 0.8, 0.1, 0.3), t=100.5, pid=7,
        ),
    ]


def test_constructors_satisfy_validator():
    for event in _sample_events():
        assert validate_event(event) == [], event


def test_events_round_trip_json():
    for event in _sample_events():
        assert json.loads(json.dumps(event)) == event


def test_run_event_carries_schema_version():
    assert _sample_events()[0]["v"] == SCHEMA_VERSION


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda e: e.pop("trace"), "trace"),
        (lambda e: e.update(event="bogus"), "unknown event kind"),
        (lambda e: e.update(t="yesterday"), "'t'"),
        (lambda e: e.update(pid="seven"), "pid"),
    ],
)
def test_validator_rejects_common_corruption(mutate, fragment):
    event = _sample_events()[1]
    mutate(event)
    problems = validate_event(event)
    assert problems and any(fragment in p for p in problems)


def test_validator_rejects_kind_specific_corruption():
    run = _sample_events()[0]
    run["v"] = SCHEMA_VERSION + 1
    assert validate_event(run)

    span = _sample_events()[1]
    span["status"] = "maybe"
    assert validate_event(span)

    hist = _sample_events()[5]
    hist["value"] = {"count": 4}  # missing sum/min/max
    assert validate_event(hist)

    counter = _sample_events()[3]
    counter["value"] = "three"
    assert validate_event(counter)

    assert validate_event("not an object") == ["event is not a JSON object"]


def test_span_cpu_s_is_optional_but_must_be_numeric():
    # Pre-1.5 span events (no cpu_s at all) stay valid forever.
    bare = _sample_events()[1]
    assert "cpu_s" not in bare
    assert validate_event(bare) == []

    timed = span_event(
        "run-1", span="7.3", parent=None, name="timed",
        t=100.0, dur_s=0.5, pid=7, cpu_s=0.25,
    )
    assert timed["cpu_s"] == 0.25
    assert validate_event(timed) == []

    timed["cpu_s"] = "fast"
    problems = validate_event(timed)
    assert problems and any("cpu_s" in p for p in problems)


def test_load_trace_round_trips_and_rejects_malformed(tmp_path):
    good = tmp_path / "good.jsonl"
    events = _sample_events()
    good.write_text(
        "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8"
    )
    assert load_trace(good) == events

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"event": "span"}\n', encoding="utf-8")
    with pytest.raises(ObsError, match="bad.jsonl:1"):
        load_trace(bad)

    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(ObsError, match="not valid JSON"):
        load_trace(garbled)


def test_render_report_covers_all_sections():
    text = render_report(TraceFold(_sample_events()))
    assert "run-1" in text
    assert "outer" in text and "inner" in text
    assert "items" in text and "rate" in text and "latency_s" in text
    assert "Failures" in text and "ValueError: boom" in text


def test_render_report_resilience_section():
    events = _sample_events() + [
        metric_event(
            "run-1", "work.retries", "counter", 3.0, t=100.6, pid=7
        ),
        metric_event(
            "run-1", "worker.restarts", "counter", 1.0, t=100.6, pid=7
        ),
    ]
    text = render_report(TraceFold(events))
    assert "Resilience (supervised execution):" in text
    assert "retries" in text and "restarts" in text
    # Resilience counters render in their own section only, with
    # human labels — the raw names stay out of the generic Metrics list.
    assert "work.retries" not in text
    assert "worker.restarts" not in text


def test_render_report_omits_resilience_section_when_clean():
    # No counters at all, and all-zero counters, both stay silent: an
    # undisturbed run's report is byte-stable across the PR.
    assert "Resilience" not in render_report(TraceFold(_sample_events()))
    zeroed = _sample_events() + [
        metric_event(
            "run-1", "work.retries", "counter", 0.0, t=100.6, pid=7
        ),
    ]
    assert "Resilience" not in render_report(TraceFold(zeroed))


def test_bench_artefacts_speak_the_same_schema(tmp_path, monkeypatch):
    """write_bench output loads through the trace reader unchanged."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import _harness
    finally:
        sys.path.pop(0)
    monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path)
    path = _harness.write_bench(
        "schema_roundtrip",
        metrics={"speedup": 3.0, "elapsed_s": 0.5},
        gate=("speedup",),
        meta={"note": "round-trip"},
    )
    events = load_events(path)
    assert [e["event"] for e in events] == ["run", "metric", "metric"]
    assert all(validate_event(e) == [] for e in events)
    # Gauges carry the host fingerprint as attrs, so a measurement
    # stays interpretable after it is separated from the artefact's
    # env block; the run marker's attrs stay the caller's meta.
    import platform as _platform

    from repro import __version__

    assert events[0]["attrs"] == {"note": "round-trip"}
    for gauge in events[1:]:
        assert gauge["attrs"]["python"] == _platform.python_version()
        assert gauge["attrs"]["repro"] == __version__
        assert gauge["attrs"]["cpus"] >= 1
        assert "platform" in gauge["attrs"]
    # The regression gate reconstructs the legacy metrics dict from the
    # same events the report renderer reads.
    benches = _harness.load_benches(tmp_path)
    assert benches["schema_roundtrip"]["metrics"] == {
        "speedup": 3.0, "elapsed_s": 0.5,
    }
    assert "speedup" in render_report(TraceFold(events))
