"""Benchmark history: an append-only trajectory with drift detection.

``benchmarks/committed/BENCH_*.json`` is a point-in-time snapshot, and
the 30% regression gate in ``check_regression.py`` only sees cliffs —
a benchmark can creep 5% slower per PR for five PRs and never trip it.
This module gives every BENCH gauge event a *trajectory*: the harness
appends each measurement (already host-fingerprinted since PR 7) to a
flock'd ``bench_history.jsonl`` stamped with the git revision, and
:func:`detect_drift` flags any series whose latest point leaves a
rolling-median band — surfaced as ``repro bench trend [metric]``
(sparkline trajectories, non-zero exit on drift) and consulted by
``check_regression.py --history`` so multi-PR creep is caught in CI,
not just single-run cliffs.

History lines are ordinary schema gauge events (:mod:`.events`) with
the revision added as ``attrs["git"]`` — the same one-object-per-line
discipline as traces and the run registry.  Like the registry, the
history is *operational* state: a torn line (a writer killed
mid-append) is quarantined by :class:`repro.journal.Journal`, not fatal.

Drift verdicts are pure arithmetic over the committed points — same
file in, bit-identical verdict out — which is what lets a committed
fixture pin the detector's behaviour in tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from statistics import median
from typing import Any

from ..journal import Journal, locked_append
from .events import validate_event

__all__ = [
    "ENV_HISTORY",
    "DEFAULT_WINDOW",
    "DEFAULT_BAND",
    "default_history_path",
    "git_revision",
    "append_history",
    "load_history",
    "history_series",
    "detect_drift",
    "sparkline",
    "render_trend",
]

#: Overrides where the benchmark history file lives.
ENV_HISTORY = "REPRO_BENCH_HISTORY"

#: Rolling-median window: the latest point is judged against the
#: median of this many points before it.
DEFAULT_WINDOW = 5

#: Allowed fractional deviation from the rolling median before a
#: series is flagged as drifting.
DEFAULT_BAND = 0.25

#: Sparkline glyphs, lowest to highest.
_SPARKS = "▁▂▃▄▅▆▇█"


def default_history_path() -> Path:
    """Where BENCH measurements accumulate (``REPRO_BENCH_HISTORY`` wins).

    The default sits beside the other operational state in
    ``benchmarks/results/`` — gitignored scratch on a laptop, a cache
    path in CI; committed *fixtures* for tests live elsewhere.
    """
    raw = os.environ.get(ENV_HISTORY)
    if raw:
        return Path(raw).expanduser()
    return Path("benchmarks") / "results" / "bench_history.jsonl"


def git_revision() -> str:
    """The working tree's revision, best effort (``"unknown"`` offline).

    ``git rev-parse --short=12 HEAD`` first; CI environments without a
    work tree fall back to ``GITHUB_SHA``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # pragma: no cover
        pass
    sha = os.environ.get("GITHUB_SHA", "")
    return sha[:12] if sha else "unknown"


def append_history(
    events: list[dict],
    path: Path | str | None = None,
    revision: str | None = None,
) -> Path:
    """Append a benchmark run's gauge events to the history, flock'd.

    Only ``metric``/``gauge`` events are history material (the run
    marker carries no measurement); each is validated, stamped with the
    git ``revision`` in its attrs, and appended in one
    :func:`repro.journal.locked_append`.
    """
    target = Path(path) if path is not None else default_history_path()
    stamp = revision if revision is not None else git_revision()
    lines: list[str] = []
    for event in events:
        if event.get("event") != "metric" or event.get("kind") != "gauge":
            continue
        record = dict(event)
        record["attrs"] = {**record.get("attrs", {}), "git": stamp}
        problems = validate_event(record)
        if problems:
            raise ValueError(
                "refusing to append a malformed history event: "
                + "; ".join(problems)
            )
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    if not lines:
        return target
    locked_append(target, "".join(lines).encode("utf-8"))
    return target


def load_history(path: Path | str | None = None) -> list[dict]:
    """The history's gauge events in append order (missing file = empty).

    Torn or malformed lines are quarantined, not fatal: one interrupted
    write must not wedge every future trend read.
    """
    source = Path(path) if path is not None else default_history_path()
    return Journal(source, _history_event).read()


def _history_event(event: Any) -> bool:
    return (
        isinstance(event, dict)
        and event.get("event") == "metric"
        and event.get("kind") == "gauge"
        and not validate_event(event)
    )


def history_series(
    events: list[dict],
) -> dict[tuple[str, str], list[dict]]:
    """History points grouped per (benchmark trace, metric name).

    Points keep append order — the axis a trend is judged along — and
    carry ``value``, ``t``, and the stamped ``git`` revision.
    """
    series: dict[tuple[str, str], list[dict]] = {}
    for event in events:
        key = (str(event.get("trace", "")), str(event.get("name", "")))
        series.setdefault(key, []).append(
            {
                "value": float(event["value"]),
                "t": float(event.get("t", 0.0)),
                "git": str(event.get("attrs", {}).get("git", "unknown")),
            }
        )
    return series


def detect_drift(
    values: list[float],
    window: int = DEFAULT_WINDOW,
    band: float = DEFAULT_BAND,
) -> dict[str, Any] | None:
    """Judge a series' latest point against its rolling-median band.

    The latest value is compared to the median of the ``window`` points
    immediately before it; a fractional deviation beyond ``band`` (in
    either direction — a sudden "improvement" is usually a broken
    benchmark) is drift.  Returns ``None`` while the series is too
    short to judge (fewer than ``window + 1`` points).  Pure arithmetic:
    the same points always produce the bit-identical verdict.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(values) < window + 1:
        return None
    latest = values[-1]
    baseline = median(values[-(window + 1) : -1])
    if baseline == 0.0:
        delta = 0.0 if latest == 0.0 else float("inf")
    else:
        delta = (latest - baseline) / abs(baseline)
    return {
        "latest": latest,
        "median": baseline,
        "delta": delta,
        "drift": abs(delta) > band,
    }


def sparkline(values: list[float]) -> str:
    """The series as min-max-normalised block glyphs (``▁`` .. ``█``)."""
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return _SPARKS[3] * len(values)
    span = hi - lo
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int((v - lo) / span * len(_SPARKS)))]
        for v in values
    )


def render_trend(
    events: list[dict],
    metric: str | None = None,
    window: int = DEFAULT_WINDOW,
    band: float = DEFAULT_BAND,
) -> tuple[str, int]:
    """The ``repro bench trend`` body: one sparkline row per series.

    Returns ``(text, n_drifting)``; the CLI exits non-zero when any
    series drifts.  ``metric`` filters by metric name (exact match).
    Series order is deterministic (sorted by benchmark, then metric).
    """
    series = history_series(events)
    if metric is not None:
        series = {key: pts for key, pts in series.items() if key[1] == metric}
    if not series:
        scope = f" for metric {metric!r}" if metric else ""
        return (f"No benchmark history{scope}.", 0)
    lines = [
        f"Benchmark history: {len(series)} series · "
        f"rolling median window {window} · band ±{band:.0%}"
    ]
    drifting = 0
    for (trace, name), points in sorted(series.items()):
        values = [point["value"] for point in points]
        verdict = detect_drift(values, window=window, band=band)
        label = f"{trace} · {name}"
        spark = sparkline(values[-24:])
        if verdict is None:
            tail = (
                f"n={len(values)} (need {window + 1} points to judge)"
            )
        else:
            tail = (
                f"n={len(values)}  latest {verdict['latest']:.4g}"
                f"  median {verdict['median']:.4g}"
                f"  {verdict['delta']:+.1%}"
            )
            if verdict["drift"]:
                drifting += 1
                tail += f"  DRIFT [{points[-1]['git']}]"
        lines.append(f"  {label:<40s} {spark:<24s} {tail}")
    if drifting:
        lines.append(
            f"{drifting} series drifted beyond the ±{band:.0%} band."
        )
    return ("\n".join(lines), drifting)


def history_marker(path: Path | str | None = None) -> dict[str, Any]:
    """A small summary of the history file (for ``repro bench trend -v``)."""
    target = Path(path) if path is not None else default_history_path()
    events = load_history(target)
    return {
        "path": str(target),
        "events": len(events),
        "series": len(history_series(events)),
        "read_at": time.time(),
    }
