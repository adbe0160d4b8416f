"""Live run monitoring: tail a trace sink into a terminal dashboard.

``repro watch <run-id|latest>`` follows a run *from its trace alone* —
no callback wiring, no shared process: the tracer's heartbeat gauges
(:func:`repro.obs.core.heartbeat`) reach the JSONL sink within about a
second, and :class:`TraceTail` reads only the bytes appended since the
last poll (a partial trailing line — a writer mid-append — is held
back until its newline arrives).

Each frame renders one :class:`~repro.obs.report.TraceFold` of
everything tailed so far, which absorbs each event once as it arrives:
a frame reads the folded metrics and resources at a cost independent of
the run's length, and re-derives only the worker pane from the kept
span events.  A snapshot shows overall
and per-campaign/per-fleet progress with throughput and ETA, live
gauges (windows/s, patients/s), cache hit rate, per-worker span counts
and busy time with straggler flags (a worker gone quiet while the run
advances), and failure counts.  Alert rules (:mod:`repro.obs.alerts`)
re-evaluate every frame, so a degrading fleet flags while it runs.

In a TTY the frame redraws in place (ANSI home+clear); ``--once`` or a
non-TTY stream prints plain frames — the CI/log mode.  The loop ends
when the run does: the ``session.run`` root span closing, or the run
registry reporting a terminal status.  A run that can never finish —
no events arriving and a provably dead owner pid — ends the watch with
a clear note and exit code 2 instead of hanging forever.
"""

from __future__ import annotations

import math
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, TextIO

from .alerts import AlertRule, breached, evaluate_rules, render_outcomes
from .report import RESILIENCE_COUNTERS, TraceFold, TraceTail

__all__ = [
    "WatchState",
    "render_frame",
    "watch",
]

#: Progress gauges the dashboard knows how to read, in display order.
PROGRESS_GAUGES = ("run.progress", "campaign.progress", "fleet.progress")

#: Rate/ETA estimation looks back over at most this many seconds.
_RATE_WINDOW_S = 30.0

#: A worker with no events for this long (while the run advances) is
#: flagged as a possible straggler.
_STRAGGLER_S = 20.0

#: The event stream must be quiet for this long before a dead-owner
#: verdict ends the watch — dying workers may still be flushing.
_DEAD_QUIET_S = 3.0


class WatchState:
    """Everything tailed so far, folded for the dashboard.

    ``update`` absorbs new events; ``snapshot`` produces the JSON-safe
    structure :func:`render_frame` renders (and tests assert on).  The
    state holds the report's own :class:`TraceFold` — alert rules and
    the report read the same fold, so watch and report can never
    disagree about a number — plus a bounded deque of progress samples
    per gauge for rate/ETA; it keeps no event list.
    """

    def __init__(self, run_id: str | None = None) -> None:
        self.run_id = run_id
        self.fold = TraceFold()
        self.finished = False
        #: (name, attr items) -> deque[(event t, value)] for rate/ETA.
        self._samples: dict[tuple, deque] = {}

    def update(self, events: list[dict]) -> None:
        """Absorb freshly tailed events."""
        self.fold.add(events)
        for event in events:
            if (
                event["event"] == "metric"
                and event["kind"] == "gauge"
                and event["name"] in PROGRESS_GAUGES
            ):
                key = (
                    event["name"],
                    tuple(sorted(event.get("attrs", {}).items())),
                )
                samples = self._samples.setdefault(key, deque(maxlen=256))
                samples.append((event["t"], float(event["value"])))
            elif (
                event["event"] == "span"
                and event["name"] == "session.run"
            ):
                # The run's root span only closes when the run is over.
                self.finished = True

    @staticmethod
    def _rate(samples: deque) -> float | None:
        """Progress units per second over the trailing window.

        Defensive on purpose: a first heartbeat landing in the same
        tick as the run span gives a zero (or float-epsilon) elapsed
        window, and a clock hiccup can hand back non-finite values —
        both must yield "no rate yet" (``None``), never an inf/NaN
        that leaks into the rendered frame.
        """
        if len(samples) < 2:
            return None
        t_last, v_last = samples[-1]
        t_first, v_first = samples[0]
        for t, value in samples:
            if t >= t_last - _RATE_WINDOW_S:
                t_first, v_first = t, value
                break
        elapsed = t_last - t_first
        if not math.isfinite(elapsed) or elapsed < 1e-6:
            return None
        rate = (v_last - v_first) / elapsed
        return rate if math.isfinite(rate) else None

    def progress_entries(self) -> list[dict[str, Any]]:
        """One entry per live progress gauge, in display order.

        A session-run trace carries the same campaign's progress twice
        (the session's ``run.progress`` heartbeat and the runner's
        ``campaign.progress``); the runner-level duplicate is dropped.
        """
        covered = {
            dict(attr_items).get("campaign")
            for (name, attr_items) in self._samples
            if name == "run.progress"
        }
        entries: list[dict[str, Any]] = []
        for gauge_name in PROGRESS_GAUGES:
            for (name, attr_items), samples in sorted(
                self._samples.items()
            ):
                if name != gauge_name:
                    continue
                attrs = dict(attr_items)
                if (
                    name == "campaign.progress"
                    and attrs.get("campaign") in covered
                ):
                    continue
                t, done = samples[-1]
                total = attrs.get("total")
                rate = self._rate(samples)
                eta_s = None
                # Only a positive, finite rate yields an ETA — a run
                # whose progress gauge went *backwards* (a re-run
                # resetting counters) must not print a negative ETA.
                if (
                    rate is not None
                    and rate > 0
                    and isinstance(total, (int, float))
                    and total > done
                ):
                    eta_s = (total - done) / rate
                    if not math.isfinite(eta_s):
                        eta_s = None
                if name == "run.progress":
                    label = str(
                        attrs.get("campaign")
                        or attrs.get("experiment", "run")
                    )
                elif name == "fleet.progress":
                    label = (
                        f"fleet {attrs.get('cohort', '?')}"
                        f"/{attrs.get('policy', '?')}"
                    )
                else:
                    label = str(attrs.get("campaign", "campaign"))
                entries.append(
                    {
                        "gauge": name,
                        "label": label,
                        "done": done,
                        "total": (
                            float(total)
                            if isinstance(total, (int, float))
                            else None
                        ),
                        "rate": rate,
                        "eta_s": eta_s,
                        "t": t,
                    }
                )
        return entries

    def snapshot(self) -> dict[str, Any]:
        """The dashboard's data, read off the fold."""
        fold = self.fold
        run = fold.run
        gauges = {
            name: slot["value"]
            for (name, _attrs), slot in sorted(fold.series.items())
            if slot["kind"] == "gauge"
            and name.endswith("_per_s")
            and isinstance(slot["value"], (int, float))
            and math.isfinite(slot["value"])
        }

        cache = {}
        folded_cache = fold.cache()
        if folded_cache.get("lookups"):
            cache = {
                "lookups": int(folded_cache["lookups"]),
                "hit_rate": folded_cache["hit_rate"],
            }

        last_t = max(fold.last_t_by_pid.values(), default=None)
        busy = fold.workers()
        workers = []
        # Every pid that emitted *anything* counts as a worker — a
        # process mid-span has heartbeat metrics but no closed spans.
        for pid in sorted(fold.last_t_by_pid):
            slot = busy.get(pid, {"busy_s": 0.0, "spans": 0})
            quiet_s = last_t - fold.last_t_by_pid[pid]
            workers.append(
                {
                    "pid": pid,
                    "spans": slot["spans"],
                    "busy_s": slot["busy_s"],
                    "quiet_s": quiet_s,
                    "straggler": (
                        not self.finished and quiet_s > _STRAGGLER_S
                    ),
                }
            )

        elapsed_s = fold.wall_s
        resources = []
        for pid in sorted(fold.resources):
            proc = fold.resources[pid]
            cpu_s = proc.get("cpu_s")
            cpu_util = (
                cpu_s / elapsed_s
                if cpu_s is not None and elapsed_s > 0.0
                else None
            )
            resources.append(
                {
                    "pid": pid,
                    "peak_rss_bytes": proc.get("peak_rss_bytes"),
                    "cpu_s": cpu_s,
                    "cpu_util": cpu_util,
                }
            )

        metrics = fold.metrics
        failures = {
            "spans": len(fold.failed()),
            "points": int(
                metrics.get("campaign.points_failed", {}).get("value", 0)
            ),
            "patients": int(
                metrics.get("fleet.patients_failed", {}).get("value", 0)
            ),
        }

        return {
            "run_id": (
                run["trace"] if run else (self.run_id or "(unknown)")
            ),
            "run_attrs": dict(run.get("attrs", {})) if run else {},
            "started_t": run["t"] if run else None,
            "elapsed_s": elapsed_s,
            "events": fold.n_events,
            "spans": len(fold.spans),
            "finished": self.finished,
            "progress": self.progress_entries(),
            "gauges": gauges,
            "cache": cache,
            "workers": workers,
            "resources": resources,
            "failures": failures,
            "resilience": fold.resilience(),
        }


def _bar(done: float, total: float | None, width: int = 22) -> str:
    if not total or total <= 0:
        return ""
    frac = min(1.0, done / total)
    fill = int(round(frac * width))
    return "[" + "#" * fill + "." * (width - fill) + "] "


def _fmt_eta(eta_s: float | None) -> str:
    if eta_s is None:
        return ""
    if eta_s >= 3600:
        return f" · ETA {eta_s / 3600.0:.1f} h"
    if eta_s >= 60:
        return f" · ETA {eta_s / 60.0:.1f} min"
    return f" · ETA {eta_s:.0f} s"


def render_frame(
    snapshot: dict[str, Any],
    outcomes: list | None = None,
) -> str:
    """One dashboard frame (plain text; the TTY mode adds clearing)."""
    status = "finished" if snapshot["finished"] else "running"
    lines = [
        f"Watching run {snapshot['run_id']} — {status} · "
        f"elapsed {snapshot['elapsed_s']:.1f} s · "
        f"{snapshot['events']} events · {snapshot['spans']} spans · "
        f"{len(snapshot['workers'])} process(es)"
    ]
    if snapshot["run_attrs"]:
        rendered = ", ".join(
            f"{key}={snapshot['run_attrs'][key]}"
            for key in sorted(snapshot["run_attrs"])[:6]
        )
        lines.append(f"  run attrs: {rendered}")

    if snapshot["progress"]:
        lines.append("")
        lines.append("Progress:")
        for entry in snapshot["progress"]:
            done, total = entry["done"], entry["total"]
            counted = (
                f"{done:g}/{total:g} ({100.0 * done / total:.0f}%)"
                if total and total > 0 and math.isfinite(done)
                else f"{done:g}"
            )
            rate = (
                f" · {entry['rate']:.2f}/s"
                if entry["rate"] is not None
                else ""
            )
            lines.append(
                f"  {entry['label']:<28} {_bar(done, total)}{counted}"
                f"{rate}{_fmt_eta(entry['eta_s'])}"
            )
    elif not snapshot["finished"]:
        lines.append("")
        lines.append(
            "Progress: no heartbeat gauges yet (run warming up, or "
            "traced by an older writer)"
        )

    if snapshot["gauges"]:
        lines.append("")
        lines.append(
            "Throughput: "
            + " · ".join(
                f"{name} {value:.3g}"
                for name, value in snapshot["gauges"].items()
            )
        )

    if snapshot["cache"]:
        lines.append(
            f"Cache: {snapshot['cache']['lookups']} lookups · "
            f"{snapshot['cache']['hit_rate']:.1%} hit rate"
        )

    if snapshot["workers"]:
        lines.append("")
        lines.append("Workers:")
        for worker in snapshot["workers"]:
            flag = (
                f"  [quiet {worker['quiet_s']:.0f}s — straggler?]"
                if worker["straggler"]
                else ""
            )
            lines.append(
                f"  pid {worker['pid']:<8} {worker['spans']:>5} spans · "
                f"busy {worker['busy_s']:>8.3f} s{flag}"
            )

    resources = snapshot.get("resources", [])
    if resources:
        lines.append("")
        lines.append("Resources (from throttled proc.* gauges):")
        for proc in resources:
            parts = [f"  pid {proc['pid']:<8}"]
            if proc["peak_rss_bytes"] is not None:
                parts.append(
                    f"peak rss {proc['peak_rss_bytes'] / 1048576.0:>7.1f} MB"
                )
            if proc["cpu_s"] is not None:
                util = (
                    f" ({100.0 * proc['cpu_util']:.0f}% util)"
                    if proc["cpu_util"] is not None
                    else ""
                )
                parts.append(f"cpu {proc['cpu_s']:>7.2f} s{util}")
            lines.append(" · ".join(parts))

    resilience = snapshot.get("resilience", {})
    if resilience:
        lines.append("")
        lines.append(
            "Resilience: "
            + " · ".join(
                f"{name.split('.', 1)[1].replace('_', ' ')} "
                f"{resilience[name]}"
                for name in RESILIENCE_COUNTERS
                if name in resilience
            )
        )

    failures = snapshot["failures"]
    if any(failures.values()):
        lines.append("")
        lines.append(
            f"FAILURES: {failures['spans']} failed span(s) · "
            f"{failures['points']} failed point(s) · "
            f"{failures['patients']} failed patient(s)"
        )

    if outcomes is not None:
        lines.append("")
        lines.append(render_outcomes(outcomes))
    return "\n".join(lines)


def watch(
    path: Path | str,
    run_id: str | None = None,
    once: bool = False,
    interval_s: float = 1.0,
    rules: list[AlertRule] | None = None,
    stream: TextIO | None = None,
    is_finished: Callable[[], bool] | None = None,
    is_dead: Callable[[], str | None] | None = None,
    max_seconds: float | None = None,
    _sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Follow one trace sink until its run finishes; returns exit code.

    Args:
        path: the run's JSONL sink (it may not exist yet — the tail
            waits for it).
        run_id: display id before the run marker arrives.
        once: render exactly one frame and return (the CI snapshot
            mode; also forced when ``stream`` is not a TTY *and* the
            caller asked for no redraw behaviour).
        interval_s: seconds between polls.
        rules: alert rules re-evaluated every frame; any breach at the
            final frame makes the exit code 1.
        stream: output stream (default stdout); TTY streams redraw in
            place, others print plain frames separated by blank lines.
        is_finished: extra terminal-state probe (the CLI passes the run
            registry's status) consulted each frame.
        is_dead: probe for a run that will *never* finish — the CLI
            passes the registry's dead-owner-pid check.  Consulted only
            once the event stream has been quiet for a grace period
            (dying workers may still be flushing); a non-``None``
            verdict ends the watch with that note and exit code 2
            instead of hanging forever.
        max_seconds: stop after this much wall time even if the run is
            still going (0 exit unless alerts fire).

    Returns:
        2 when the watched run is dead (crashed owner, stale stream),
        1 when alert rules fired (at the last rendered frame),
        0 otherwise.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    tty = bool(getattr(out, "isatty", lambda: False)())
    tail = TraceTail(path)
    state = WatchState(run_id=run_id)
    outcomes: list | None = None
    deadline = (
        time.monotonic() + max_seconds if max_seconds is not None else None
    )
    first_frame = True
    last_activity = time.monotonic()
    dead_reason: str | None = None
    while True:
        fresh = tail.poll()
        state.update(fresh)
        if fresh:
            last_activity = time.monotonic()
        done = state.finished or (
            is_finished is not None and is_finished()
        )
        if done and not state.finished:
            # The registry flips to a terminal status only after the
            # trace's final flush — one more poll catches it.
            state.update(tail.poll())
        if (
            not done
            and is_dead is not None
            and (once or time.monotonic() - last_activity >= _DEAD_QUIET_S)
        ):
            dead_reason = is_dead()
        if rules:
            outcomes = evaluate_rules(rules, state.fold)
        frame = render_frame(state.snapshot(), outcomes)
        if dead_reason:
            frame += (
                f"\n\nRUN DEAD: {dead_reason} — the run will never "
                "finish; exiting instead of waiting forever.\n"
                "(finalize it with `repro runs --prune-stale`)"
            )
        if tty and not once:
            out.write("\x1b[H\x1b[2J" + frame + "\n")
        else:
            if not first_frame:
                out.write("\n")
            out.write(frame + "\n")
        out.flush()
        first_frame = False
        if once or done or dead_reason:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        _sleep(interval_s)
    if dead_reason:
        return 2
    return 1 if (outcomes is not None and breached(outcomes)) else 0
