"""Read a trace back and render the ``repro report`` breakdown.

This is the single reader for everything written in the
:mod:`repro.obs.events` schema: per-run JSONL traces from
:mod:`repro.obs.core` and the benchmark harness's BENCH ``.json``
artefacts (which carry their events under an ``"events"`` key).  The
renderer produces four sections — the wall-time span tree, a per-process
worker-utilization table, cache hit rates, and the top-N slowest spans —
from one :class:`TraceFold`, the incremental fold that ``repro watch``,
``repro report --diff`` and the alert rules read as well.

Every line is validated against the schema contract on load; a
malformed event is a hard :class:`~repro.errors.ObsError` naming its
line (the :data:`~repro.journal.RAISE` torn-line policy), which is how
``repro report`` turns a corrupt trace into a non-zero exit in CI.
:class:`TraceTail` reads a live sink the same way, incrementally.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from ..errors import ObsError
from ..journal import RAISE, Journal, TornLineError
from .events import validate_event

__all__ = [
    "TraceFold",
    "TraceTail",
    "load_trace",
    "load_events",
    "resolve_trace",
    "span_totals",
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

_PROC_GAUGES = ("proc.rss_bytes", "proc.cpu_s")


def _new_slot(kind: str, value: Any, **extra: Any) -> dict[str, Any]:
    return {
        "kind": kind,
        "value": dict(value) if kind == "histogram" else value,
        **extra,
    }


def _merge(slot: dict[str, Any], kind: str, value: Any, newer: bool) -> None:
    """Fold one metric reading into a slot: the single per-kind rule.

    Counters sum their deltas and histograms merge their ``{count, sum,
    min, max}`` summaries; a gauge takes the reading only when
    ``newer`` — each view's own notion of the latest write.
    """
    if kind == "counter":
        slot["value"] += value
    elif kind == "gauge":
        if newer:
            slot["value"] = value
    elif kind == "histogram":
        merged = slot["value"]
        merged["count"] += value["count"]
        merged["sum"] += value["sum"]
        merged["min"] = min(merged["min"], value["min"])
        merged["max"] = max(merged["max"], value["max"])


class TraceFold:
    """One incremental fold of a trace: what report, watch, diff and
    alert rules all read.

    :meth:`add` absorbs each event once, in file order, so absorbing a
    stream in chunks equals absorbing it at once.  Of the trace itself
    only the span events are kept; the span tree, worker busy time,
    slowest spans and failures are derived from them when asked.  The
    attributes are live views — read them, do not mutate them:

    * ``run`` (the first run marker or ``None``), ``trace_id`` (the
      first event's), ``n_events``, ``last_t_by_pid`` and ``spans``;
    * ``resources``: per-pid ``{"peak_rss_bytes", "cpu_s"}`` from the
      throttled ``proc.*`` gauges — the peak RSS seen, and the latest
      cumulative CPU reading by ``t``;
    * ``metrics``: ``{name: {"kind", "value"}}``, a gauge keeping its
      last write in file order;
    * ``series``: ``{(name, sorted attr items): {"kind", "value", "t",
      "attrs"}}`` for consumers that need the attribute dimensions, a
      gauge keeping its latest write by ``t``.

    Both metric views sum counters and merge histograms (one rule,
    :func:`_merge`).
    """

    def __init__(self, events: Iterable[dict] = ()) -> None:
        self.run: dict | None = None
        self.trace_id: str | None = None
        self.n_events = 0
        self._start = math.inf
        self._end = -math.inf
        self.last_t_by_pid: dict[int, float] = {}
        self.spans: list[dict] = []
        self.resources: dict[int, dict] = {}
        self._cpu_t: dict[int, float] = {}
        self.metrics: dict[str, dict] = {}
        self.series: dict[tuple[str, tuple], dict[str, Any]] = {}
        self.add(events)

    def add(self, events: Iterable[dict]) -> None:
        """Absorb events appended after everything absorbed so far."""
        last_t_by_pid = self.last_t_by_pid
        for event in events:
            kind, t, pid = event["event"], event["t"], event["pid"]
            if not self.n_events:
                self.trace_id = event["trace"]
            self.n_events += 1
            end = t + (event["dur_s"] if kind == "span" else 0.0)
            if t < self._start:
                self._start = t
            if end > self._end:
                self._end = end
            last = last_t_by_pid.get(pid)
            if last is None or t > last:
                last_t_by_pid[pid] = t
            if kind == "span":
                self.spans.append(event)
            elif kind == "metric":
                self._add_metric(event, t, pid)
            elif kind == "run" and self.run is None:
                self.run = event

    def _add_metric(self, event: dict, t: float, pid: int) -> None:
        name, kind, value = event["name"], event["kind"], event["value"]
        attrs = event.get("attrs", {})
        slot = self.metrics.get(name)
        if slot is None:
            self.metrics[name] = _new_slot(kind, value)
        else:
            _merge(slot, kind, value, True)
        key = (name, tuple(sorted(attrs.items())))
        slot = self.series.get(key)
        if slot is None:
            self.series[key] = _new_slot(kind, value, t=t, attrs=dict(attrs))
        else:
            _merge(slot, kind, value, t >= slot["t"])
            slot["t"] = max(slot["t"], t)
        if kind != "gauge" or name not in _PROC_GAUGES:
            return
        proc = self.resources.setdefault(
            pid, {"peak_rss_bytes": None, "cpu_s": None}
        )
        reading = float(value)
        if name == "proc.rss_bytes":
            if proc["peak_rss_bytes"] is None or reading > proc["peak_rss_bytes"]:
                proc["peak_rss_bytes"] = reading
        elif t >= self._cpu_t.get(pid, 0.0):
            proc["cpu_s"] = reading
            self._cpu_t[pid] = t

    @property
    def wall_s(self) -> float:
        """First event start to last span end (0.0 when empty)."""
        return (self._end - self._start) if self.n_events else 0.0

    def tree(self) -> dict[tuple[str, ...], dict]:
        """The :func:`span_totals` aggregate of the spans."""
        return span_totals(self.spans)

    def workers(self) -> dict[int, dict]:
        """Per-pid ``{"busy_s", "spans"}``; busy time counts only
        process-root spans (parent in another process or nowhere) —
        nested spans would double-count their parents' wall time."""
        by_id = {event["span"]: event for event in self.spans}
        workers: dict[int, dict] = {}
        for event in self.spans:
            slot = workers.setdefault(
                event["pid"], {"busy_s": 0.0, "spans": 0}
            )
            slot["spans"] += 1
            parent = event.get("parent")
            parent_event = by_id.get(parent) if parent is not None else None
            if parent_event is None or parent_event["pid"] != event["pid"]:
                slot["busy_s"] += float(event["dur_s"])
        return workers

    def failed(self) -> list[dict]:
        """The failed span events, in file order."""
        return [event for event in self.spans if event["status"] == "failed"]

    def cache(self) -> dict[str, Any]:
        """``lookups``, ``memory_hit``, ``disk_hit``, ``computed`` and
        ``hit_rate``; empty without cache counters."""
        if not any(name in self.metrics for name in _CACHE_COUNTERS):
            return {}
        cache = {
            name.split(".", 1)[1]: self.metrics.get(name, {}).get("value", 0.0)
            for name in _CACHE_COUNTERS
        }
        hits = cache["memory_hit"] + cache["disk_hit"]
        cache["lookups"] = lookups = hits + cache["computed"]
        cache["hit_rate"] = hits / lookups if lookups else None
        return cache

    def resilience(self) -> dict[str, int]:
        """The non-zero :data:`RESILIENCE_COUNTERS`, in display order."""
        return {
            name: int(self.metrics[name]["value"])
            for name in RESILIENCE_COUNTERS
            if name in self.metrics and self.metrics[name]["value"]
        }


def _format_attrs(attrs: dict[str, Any], limit: int = 3) -> str:
    parts = [
        f"{key}={attrs[key]}" for key in sorted(attrs)[:limit]
    ]
    return ", ".join(parts)


def render_report(
    fold: TraceFold,
    top: int = 10,
    live_source: bool = False,
    profile: dict | None = None,
) -> str:
    """The full ``repro report`` text for one trace's :class:`TraceFold`.

    ``live_source`` marks events read from a per-run trace sink (as
    opposed to a closed BENCH artefact): a live trace with no closed
    spans yet is reported as *in progress* rather than rendered as a
    bare header, and an entirely empty one says so explicitly.
    ``top`` bounds every ranked section (slowest spans, hot functions).
    ``profile`` is a merged sampling profile
    (:func:`repro.obs.profile.load_profile`); when given, the report
    ends with the top-``top`` hot functions folded per span path.
    """
    if not fold.n_events:
        return (
            "Trace is empty — no events recorded.\n"
            "  (the run may have crashed before its first flush, or the "
            "sink was truncated)"
        )

    run = fold.run
    run_id = run["trace"] if run else fold.trace_id
    workers = fold.workers()
    lines: list[str] = []
    lines.append(f"Trace report — run {run_id}")
    lines.append(
        f"  wall time {fold.wall_s:.3f} s · "
        f"{len(fold.spans)} spans · {fold.n_events} events · "
        f"{len(workers)} process(es)"
    )
    if run and run.get("attrs"):
        lines.append(f"  run attrs: {_format_attrs(run['attrs'], limit=6)}")
    if live_source and not fold.spans:
        lines.append(
            "  run in progress — no closed spans yet "
            f"(tail it live with 'repro watch {run_id}')"
        )

    tree = fold.tree()
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
        wall = fold.wall_s or 1.0
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

    if workers:
        lines.append("")
        lines.append("Worker utilization (busy = process-root span time):")
        wall = fold.wall_s or 1.0
        resources = fold.resources
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

    metrics = fold.metrics
    cache = fold.cache()
    if cache:
        lines.append("")
        lines.append(
            f"Calibration cache: {int(cache['lookups'])} lookups — "
            f"{int(cache['memory_hit'])} memory hits, "
            f"{int(cache['disk_hit'])} disk hits, "
            f"{int(cache['computed'])} computed "
            f"({100.0 * (cache['hit_rate'] or 0.0):.1f}% hit rate)"
        )

    resilience = fold.resilience()
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

    slowest = sorted(
        fold.spans, key=lambda event: event["dur_s"], reverse=True
    )[:top]
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

    failed = fold.failed()
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
