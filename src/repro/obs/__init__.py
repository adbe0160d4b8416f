"""``repro.obs`` — tracing, metrics, and run telemetry.

The package's observability spine: span-based tracing with context
propagation across worker pools (:mod:`repro.obs.core`), a single JSONL
event schema shared with the benchmark harness
(:mod:`repro.obs.events`), the ``repro report`` renderer
(:mod:`repro.obs.report`), a span-attributed sampling profiler
(:mod:`repro.obs.profile`, ``--profile`` / ``REPRO_PROFILE``), the
benchmark history and drift detector (:mod:`repro.obs.bench`), and the
CLI's logging configuration (:mod:`repro.obs.logcfg`).  Everything is
stdlib-only, and every probe is a no-op until tracing is enabled —
instrumented library code pays one cheap check per call when a run is
untraced.

Typical library usage::

    from repro import obs

    with obs.span("calibrate", app=app, voltage=v) as span:
        ...
        obs.counter("cache.disk_hit")

Tracing turns on per run: set ``REPRO_TRACE_DIR`` (or pass ``--trace``
to the CLI) and :class:`repro.api.session.Session` opens a sink named
by the experiment's content-hash run id; ``repro report <run-id>``
renders it.  See ``docs/observability.md`` for the event schema and
span taxonomy.
"""

from __future__ import annotations

from .alerts import (
    AlertOutcome,
    AlertRule,
    breached,
    evaluate_rules,
    load_rules,
    render_outcomes,
    rules_from_payload,
)
from .bench import (
    append_history,
    default_history_path,
    detect_drift,
    git_revision,
    load_history,
    render_trend,
)
from .core import (
    FLUSH_EVERY,
    HEARTBEAT_FLUSH_S,
    RESOURCE_INTERVAL_S,
    Span,
    configured_dir,
    counter,
    cpu_seconds,
    current_span_id,
    default_trace_dir,
    disable,
    enable,
    enabled,
    flush,
    gauge,
    heartbeat,
    observe,
    peak_rss_bytes,
    resource_probe,
    rss_bytes,
    set_trace_dir,
    span,
    start_run,
    trace_path,
    trace_run_id,
    worker_parent,
)
from .diff import diff_events, render_diff
from .events import (
    EVENT_KINDS,
    METRIC_KINDS,
    SCHEMA_VERSION,
    SPAN_STATUSES,
    metric_event,
    run_event,
    span_event,
    validate_event,
)
from .logcfg import configure as configure_logging
from .logcfg import get_logger
from .profile import (
    load_profile,
    profile_dir_for,
    sampler_active,
    speedscope_document,
)
from .registry import (
    REGISTRY_BASENAME,
    STALE_STATUS,
    RunLifecycle,
    RunRecord,
    RunRegistry,
    host_metadata,
    pid_alive,
    run_lifecycle,
)
from .report import (
    RESILIENCE_COUNTERS,
    TraceFold,
    TraceTail,
    load_events,
    load_trace,
    render_report,
    resolve_trace,
    span_totals,
)
from .watch import WatchState, render_frame, watch

__all__ = [
    # core
    "FLUSH_EVERY",
    "HEARTBEAT_FLUSH_S",
    "RESOURCE_INTERVAL_S",
    "Span",
    "enabled",
    "enable",
    "disable",
    "span",
    "counter",
    "gauge",
    "observe",
    "heartbeat",
    "flush",
    "current_span_id",
    "trace_path",
    "trace_run_id",
    "configured_dir",
    "set_trace_dir",
    "default_trace_dir",
    "start_run",
    "worker_parent",
    "resource_probe",
    "rss_bytes",
    "peak_rss_bytes",
    "cpu_seconds",
    # profile
    "load_profile",
    "profile_dir_for",
    "sampler_active",
    "speedscope_document",
    # bench
    "append_history",
    "default_history_path",
    "detect_drift",
    "git_revision",
    "load_history",
    "render_trend",
    # events
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "METRIC_KINDS",
    "SPAN_STATUSES",
    "run_event",
    "span_event",
    "metric_event",
    "validate_event",
    # report
    "RESILIENCE_COUNTERS",
    "TraceFold",
    "TraceTail",
    "load_trace",
    "load_events",
    "resolve_trace",
    "span_totals",
    "render_report",
    # registry
    "REGISTRY_BASENAME",
    "STALE_STATUS",
    "RunLifecycle",
    "RunRecord",
    "RunRegistry",
    "host_metadata",
    "pid_alive",
    "run_lifecycle",
    # watch
    "WatchState",
    "render_frame",
    "watch",
    # diff
    "diff_events",
    "render_diff",
    # alerts
    "AlertRule",
    "AlertOutcome",
    "load_rules",
    "rules_from_payload",
    "evaluate_rules",
    "breached",
    "render_outcomes",
    # logging
    "configure_logging",
    "get_logger",
]
