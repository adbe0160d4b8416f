"""Read a trace back and render the ``repro report`` breakdown.

This is the single reader for everything written in the
:mod:`repro.obs.events` schema: per-run JSONL traces from
:mod:`repro.obs.core` and the benchmark harness's BENCH ``.json``
artefacts (which carry their events under an ``"events"`` key).  The
renderer produces four sections — the wall-time span tree, a per-process
worker-utilization table, cache hit rates, and the top-N slowest spans —
from one pass over the events.

Every line is validated against the schema contract on load; a
malformed event is a hard :class:`~repro.errors.ObsError` naming its
line (the :data:`~repro.journal.RAISE` torn-line policy), which is how
``repro report`` turns a corrupt trace into a non-zero exit in CI.
:class:`TraceTail` reads a live sink the same way, incrementally.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..errors import ObsError
from ..journal import RAISE, Journal, TornLineError
from .events import validate_event

__all__ = [
    "TraceTail",
    "load_trace",
    "load_events",
    "resolve_trace",
    "summarize",
    "span_totals",
    "metric_totals",
    "metric_series",
    "render_report",
]


def _valid_event(event: Any) -> bool:
    problems = validate_event(event)
    if problems:
        raise ValueError("malformed trace event: " + "; ".join(problems))
    return True


class TraceTail:
    """Incremental reader of a growing JSONL trace sink.

    :meth:`poll` returns the complete lines appended since the last
    poll, holding back a line whose newline has not arrived yet; a sink
    a re-run truncated or rewrote is re-read from the top.  A malformed
    line is a hard :class:`~repro.errors.ObsError` naming its line — a
    trace that lies is worse than no trace.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._journal = Journal(self.path, _valid_event, torn=RAISE)

    def poll(self, final: bool = False) -> list[dict]:
        """Validated events appended since the last poll (maybe empty);
        ``final`` also parses an unterminated last line."""
        try:
            return self._journal.read(final)
        except TornLineError as exc:
            raise ObsError(str(exc)) from exc


def load_trace(path: Path | str) -> list[dict]:
    """Parse and validate a JSONL trace; raises ObsError on any bad line."""
    source = Path(path)
    try:
        source.stat()
        return TraceTail(source).poll(final=True)
    except OSError as exc:
        raise ObsError(f"cannot read trace {source}: {exc}") from exc


def load_events(path: Path | str) -> list[dict]:
    """Load schema events from a ``.jsonl`` trace or a BENCH ``.json`` file.

    BENCH artefacts are single JSON objects whose ``"events"`` key holds
    the metric events the harness emitted; anything else is treated as
    a line-per-event trace.
    """
    source = Path(path)
    if source.suffix == ".json":
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ObsError(f"cannot read {source}: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(
            payload.get("events"), list
        ):
            raise ObsError(
                f"{source}: expected a BENCH object with an 'events' list"
            )
        events = []
        for index, event in enumerate(payload["events"]):
            problems = validate_event(event)
            if problems:
                raise ObsError(
                    f"{source}: events[{index}] malformed: "
                    + "; ".join(problems)
                )
            events.append(event)
        return events
    return load_trace(source)


def resolve_trace(target: str, trace_dir: Path | str | None) -> Path:
    """Turn a ``repro report`` argument into a readable trace path.

    Accepts an existing file path (``.jsonl`` trace or BENCH ``.json``)
    or a bare run id, which is resolved to ``<trace_dir>/<id>.jsonl``.
    """
    direct = Path(target)
    if direct.is_file():
        return direct
    if trace_dir is not None:
        candidate = Path(trace_dir) / f"{target}.jsonl"
        if candidate.is_file():
            return candidate
        raise ObsError(
            f"no trace named {target!r}: neither the path {direct} nor "
            f"{candidate} exists"
        )
    raise ObsError(
        f"no trace named {target!r}: the path {direct} does not exist and "
        "no trace directory is configured (set REPRO_TRACE_DIR or pass "
        "--trace)"
    )


def _span_paths(spans: list[dict]) -> dict[str, tuple[str, ...]]:
    """Each span id's name path from its process/trace root.

    A span whose parent never closed (killed worker, cross-file parent)
    is treated as a root; the tree degrades rather than fails.
    """
    by_id = {event["span"]: event for event in spans}
    paths: dict[str, tuple[str, ...]] = {}

    def path_of(span_id: str) -> tuple[str, ...]:
        cached = paths.get(span_id)
        if cached is not None:
            return cached
        chain: list[str] = []
        cursor: str | None = span_id
        seen = set()
        while cursor is not None and cursor in by_id and cursor not in seen:
            seen.add(cursor)
            event = by_id[cursor]
            chain.append(event["name"])
            cursor = event.get("parent")
        result = tuple(reversed(chain))
        paths[span_id] = result
        return result

    for span_id in by_id:
        path_of(span_id)
    return paths


def span_totals(events: list[dict]) -> dict[tuple[str, ...], dict]:
    """Aggregate spans by name path: count, wall/self/CPU seconds, failures.

    ``self_s`` is the *exclusive* wall time — each path's total minus
    the totals of its direct children (clamped at zero: overlapping
    child spans from concurrent threads can nominally exceed the
    parent).  ``cpu_s`` sums the spans' ``time.process_time`` deltas;
    traces from before schema revision 1.5 carry none and report 0.
    """
    spans = [event for event in events if event["event"] == "span"]
    paths = _span_paths(spans)
    by_id = {event["span"]: event for event in spans}
    totals: dict[tuple[str, ...], dict] = {}
    for event in spans:
        path = paths[event["span"]]
        slot = totals.setdefault(
            path,
            {
                "count": 0, "total_s": 0.0, "failed": 0,
                "cpu_s": 0.0, "child_s": 0.0,
            },
        )
        slot["count"] += 1
        slot["total_s"] += float(event["dur_s"])
        slot["cpu_s"] += float(event.get("cpu_s") or 0.0)
        if event["status"] == "failed":
            slot["failed"] += 1
    for event in spans:
        parent = by_id.get(event.get("parent"))
        if parent is not None:
            totals[paths[parent["span"]]]["child_s"] += float(
                event["dur_s"]
            )
    for slot in totals.values():
        slot["self_s"] = max(0.0, slot["total_s"] - slot.pop("child_s"))
    return totals


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

#: Supervision counters rendered as their own Resilience section (and
#: excluded from the generic metrics table), in display order.
RESILIENCE_COUNTERS = (
    "work.retries",
    "worker.restarts",
    "work.timeouts",
    "work.quarantined",
    "store.write_retries",
    "store.quarantined_lines",
)


def _format_attrs(attrs: dict[str, Any], limit: int = 3) -> str:
    parts = [
        f"{key}={attrs[key]}" for key in sorted(attrs)[:limit]
    ]
    return ", ".join(parts)


def render_report(
    events: list[dict],
    top: int = 10,
    live_source: bool = False,
    profile: dict | None = None,
) -> str:
    """The full ``repro report`` text for one trace's events.

    ``live_source`` marks events read from a per-run trace sink (as
    opposed to a closed BENCH artefact): a live trace with no closed
    spans yet is reported as *in progress* rather than rendered as a
    bare header, and an entirely empty one says so explicitly.
    ``top`` bounds every ranked section (slowest spans, hot functions).
    ``profile`` is a merged sampling profile
    (:func:`repro.obs.profile.load_profile`); when given, the report
    ends with the top-``top`` hot functions folded per span path.
    """
    summary = summarize(events)
    run = summary["run"]
    lines: list[str] = []

    if not events:
        return (
            "Trace is empty — no events recorded.\n"
            "  (the run may have crashed before its first flush, or the "
            "sink was truncated)"
        )

    run_id = run["trace"] if run else events[0]["trace"]
    lines.append(f"Trace report — run {run_id}")
    lines.append(
        f"  wall time {summary['wall_s']:.3f} s · "
        f"{summary['spans']} spans · {summary['events']} events · "
        f"{len(summary['workers'])} process(es)"
    )
    if run and run.get("attrs"):
        lines.append(f"  run attrs: {_format_attrs(run['attrs'], limit=6)}")
    if live_source and not summary["spans"]:
        lines.append(
            "  run in progress — no closed spans yet "
            f"(tail it live with 'repro watch {run_id}')"
        )

    tree = summary["tree"]
    if tree:
        # The CPU column only earns its width when the trace carries
        # cpu_s at all (schema revision 1.5+); older traces keep the
        # original layout.
        has_cpu = any(slot["cpu_s"] > 0.0 for slot in tree.values())
        lines.append("")
        lines.append(
            "Wall-time breakdown (spans aggregated by path; "
            "self = exclusive wall):"
        )
        wall = summary["wall_s"] or 1.0
        for path in sorted(tree):
            slot = tree[path]
            indent = "  " * len(path)
            share = 100.0 * slot["total_s"] / wall
            failed = (
                f"  [{slot['failed']} failed]" if slot["failed"] else ""
            )
            cpu = f" cpu {slot['cpu_s']:>8.3f} s" if has_cpu else ""
            lines.append(
                f"{indent}{path[-1]:<28} {slot['count']:>5}× "
                f"{slot['total_s']:>9.3f} s {share:>5.1f}% "
                f"self {slot['self_s']:>8.3f} s{cpu}{failed}"
            )

    workers = summary["workers"]
    if workers:
        lines.append("")
        lines.append("Worker utilization (busy = process-root span time):")
        wall = summary["wall_s"] or 1.0
        resources = summary["resources"]
        for pid in sorted(workers):
            slot = workers[pid]
            line = (
                f"  pid {pid:<8} busy {slot['busy_s']:>8.3f} s "
                f"({100.0 * slot['busy_s'] / wall:>5.1f}%) · "
                f"{slot['spans']} spans"
            )
            proc = resources.get(pid, {})
            cpu_s = proc.get("cpu_s")
            if cpu_s is not None:
                line += (
                    f" · cpu {cpu_s:>7.3f} s "
                    f"({100.0 * cpu_s / wall:>5.1f}% util)"
                )
            rss = proc.get("peak_rss_bytes")
            if rss is not None:
                line += f" · peak rss {rss / 1048576.0:>7.1f} MB"
            lines.append(line)

    metrics = summary["metrics"]
    cache = summary["cache"]
    if cache:
        lines.append("")
        lines.append(
            f"Calibration cache: {int(cache['lookups'])} lookups — "
            f"{int(cache['memory_hit'])} memory hits, "
            f"{int(cache['disk_hit'])} disk hits, "
            f"{int(cache['computed'])} computed "
            f"({100.0 * (cache['hit_rate'] or 0.0):.1f}% hit rate)"
        )

    resilience = summary["resilience"]
    if resilience:
        lines.append("")
        lines.append("Resilience (supervised execution):")
        for name, value in resilience.items():
            label = name.split(".", 1)[1].replace("_", " ")
            lines.append(f"  {label:<32} {value}")

    other = {
        name: slot for name, slot in sorted(metrics.items())
        if name not in _CACHE_COUNTERS + RESILIENCE_COUNTERS
    }
    if other:
        lines.append("")
        lines.append("Metrics:")
        for name, slot in other.items():
            value = slot["value"]
            if slot["kind"] == "histogram":
                mean = value["sum"] / value["count"] if value["count"] else 0.0
                rendered = (
                    f"n={value['count']} mean={mean:.6g} "
                    f"min={value['min']:.6g} max={value['max']:.6g}"
                )
            else:
                rendered = f"{value:.6g}"
            lines.append(f"  {name:<32} {slot['kind']:<9} {rendered}")

    slowest = summary["slowest"][:top]
    if slowest:
        lines.append("")
        lines.append(f"Slowest spans (top {len(slowest)}):")
        for rank, event in enumerate(slowest, start=1):
            attrs = _format_attrs(event.get("attrs", {}))
            suffix = f"  ({attrs})" if attrs else ""
            lines.append(
                f"  {rank:>2}. {event['name']:<20} "
                f"{event['dur_s']:>9.3f} s  pid {event['pid']}{suffix}"
            )

    failed = summary["failed"]
    if failed:
        lines.append("")
        lines.append(f"Failures ({len(failed)}):")
        for event in failed:
            lines.append(
                f"  {event['name']} span {event['span']}: "
                f"{event.get('error', '(no error text)')}"
            )

    if profile is not None:
        from .profile import render_hot_section

        lines.append("")
        lines.append(render_hot_section(profile, top=top))

    return "\n".join(lines)
