"""Cross-run comparison: span-path wall time and metric deltas.

``repro report --diff <run-a> <run-b>`` answers "what changed between
run N-1 and run N": per span path, how the call count and total wall
time moved; per metric, how the folded value moved — with regressions
highlighted.  Both sides are plain event lists, so the diff works
across any two schema sources: two registered run traces, a trace and
a BENCH artefact, two BENCH artefacts from different machines (the
registry's host metadata, echoed in the header, says whether a wall-
time delta is really a machine delta).

The aggregation reuses :func:`~repro.obs.report.summarize` — the diff
never invents a second notion of "total" that could drift from the
report's.
"""

from __future__ import annotations

from typing import Any

from .report import summarize

__all__ = [
    "REGRESSION_THRESHOLD",
    "diff_events",
    "render_diff",
]

#: A span path whose total seconds grew by more than this fraction (and
#: by more than an absolute floor) is flagged as a regression.
REGRESSION_THRESHOLD = 0.25

#: Absolute growth floor (seconds) below which a span delta is noise.
_ABS_FLOOR_S = 0.005


def _pct(a: float, b: float) -> float | None:
    """Relative change b vs a, or None when a is zero."""
    if a == 0.0:
        return None
    return (b - a) / a


def _metric_scalar(slot: dict[str, Any]) -> float:
    """A folded metric as one comparable number (histograms: mean)."""
    value = slot["value"]
    if slot["kind"] == "histogram":
        return value["sum"] / value["count"] if value["count"] else 0.0
    return float(value)


def diff_events(
    events_a: list[dict], events_b: list[dict]
) -> dict[str, Any]:
    """Structured comparison of two event sets (a = before, b = after).

    Returns::

        {
          "a": {"run_id", "wall_s", "spans", "failed", "attrs"},
          "b": {...},
          "spans": [{"path", "count_a", "count_b", "total_a",
                     "total_b", "delta_s", "pct", "regression"}, ...],
          "metrics": [{"name", "kind", "a", "b", "delta", "pct"}, ...],
        }

    Span rows cover the union of paths (a path absent on one side reads
    as count 0 / 0 s there) and are sorted by absolute wall-time delta,
    biggest mover first; metric rows are sorted by name.
    """
    summaries = {"a": summarize(events_a), "b": summarize(events_b)}
    sides = {}
    for label, events in (("a", events_a), ("b", events_b)):
        summary = summaries[label]
        run = summary["run"]
        sides[label] = {
            "run_id": run["trace"] if run else (
                events[0]["trace"] if events else "(empty)"
            ),
            "wall_s": summary["wall_s"],
            "spans": summary["spans"],
            "failed": len(summary["failed"]),
            "attrs": dict(run.get("attrs", {})) if run else {},
        }

    totals_a, totals_b = summaries["a"]["tree"], summaries["b"]["tree"]
    span_rows: list[dict[str, Any]] = []
    for path in sorted(set(totals_a) | set(totals_b)):
        slot_a = totals_a.get(path, {"count": 0, "total_s": 0.0, "failed": 0})
        slot_b = totals_b.get(path, {"count": 0, "total_s": 0.0, "failed": 0})
        delta = slot_b["total_s"] - slot_a["total_s"]
        pct = _pct(slot_a["total_s"], slot_b["total_s"])
        regression = (
            delta > _ABS_FLOOR_S
            and (pct is None or pct > REGRESSION_THRESHOLD)
        )
        span_rows.append(
            {
                "path": path,
                "count_a": slot_a["count"],
                "count_b": slot_b["count"],
                "failed_a": slot_a["failed"],
                "failed_b": slot_b["failed"],
                "total_a": slot_a["total_s"],
                "total_b": slot_b["total_s"],
                "delta_s": delta,
                "pct": pct,
                "regression": regression,
            }
        )
    span_rows.sort(key=lambda row: abs(row["delta_s"]), reverse=True)

    folded_a, folded_b = summaries["a"]["metrics"], summaries["b"]["metrics"]
    metric_rows: list[dict[str, Any]] = []
    for name in sorted(set(folded_a) | set(folded_b)):
        slot_a, slot_b = folded_a.get(name), folded_b.get(name)
        value_a = _metric_scalar(slot_a) if slot_a else None
        value_b = _metric_scalar(slot_b) if slot_b else None
        delta = (
            value_b - value_a
            if value_a is not None and value_b is not None
            else None
        )
        metric_rows.append(
            {
                "name": name,
                "kind": (slot_b or slot_a)["kind"],
                "a": value_a,
                "b": value_b,
                "delta": delta,
                "pct": (
                    _pct(value_a, value_b)
                    if value_a is not None and value_b is not None
                    else None
                ),
            }
        )

    return {
        "a": sides["a"],
        "b": sides["b"],
        "spans": span_rows,
        "metrics": metric_rows,
    }


def _fmt_num(value: float | None, precision: int = 6) -> str:
    return "-" if value is None else f"{value:.{precision}g}"


def _fmt_pct(pct: float | None) -> str:
    return "  (new)" if pct is None else f"{pct:+7.1%}"


def render_diff(diff: dict[str, Any], top: int = 20) -> str:
    """The ``repro report --diff`` text for one :func:`diff_events`."""
    a, b = diff["a"], diff["b"]
    lines = [
        f"Run diff — a: {a['run_id']}  ->  b: {b['run_id']}",
        f"  wall time {a['wall_s']:.3f} s -> {b['wall_s']:.3f} s "
        f"({_fmt_pct(_pct(a['wall_s'], b['wall_s']))}) · "
        f"spans {a['spans']} -> {b['spans']} · "
        f"failed {a['failed']} -> {b['failed']}",
    ]
    for label, side in (("a", a), ("b", b)):
        if side["attrs"]:
            rendered = ", ".join(
                f"{key}={side['attrs'][key]}"
                for key in sorted(side["attrs"])[:6]
            )
            lines.append(f"  {label} attrs: {rendered}")

    span_rows = diff["spans"][:top]
    if span_rows:
        lines.append("")
        lines.append(
            f"Span wall-time deltas (top {len(span_rows)} by |delta|):"
        )
        lines.append(
            f"  {'path':<44} {'a':>9} {'b':>9} {'delta':>9}  {'change':>7}"
        )
        for row in span_rows:
            path = "/".join(row["path"])
            if len(path) > 44:
                path = "..." + path[-41:]
            flag = "  REGRESSION" if row["regression"] else ""
            failed = ""
            if row["failed_a"] or row["failed_b"]:
                failed = (
                    f"  [failed {row['failed_a']}->{row['failed_b']}]"
                )
            lines.append(
                f"  {path:<44} {row['total_a']:>8.3f}s {row['total_b']:>8.3f}s "
                f"{row['delta_s']:>+8.3f}s  {_fmt_pct(row['pct']):>7}"
                f"{flag}{failed}"
            )

    metric_rows = diff["metrics"]
    if metric_rows:
        lines.append("")
        lines.append("Metric deltas:")
        lines.append(
            f"  {'metric':<34} {'kind':<9} {'a':>12} {'b':>12} {'delta':>12}"
        )
        for row in metric_rows:
            lines.append(
                f"  {row['name']:<34} {row['kind']:<9} "
                f"{_fmt_num(row['a']):>12} {_fmt_num(row['b']):>12} "
                f"{_fmt_num(row['delta']):>12}"
            )

    n_regressions = sum(1 for row in diff["spans"] if row["regression"])
    lines.append("")
    lines.append(
        f"{n_regressions} span path(s) regressed more than "
        f"{REGRESSION_THRESHOLD:.0%}"
        if n_regressions
        else "No span-path regressions beyond "
        f"{REGRESSION_THRESHOLD:.0%}"
    )
    return "\n".join(lines)
