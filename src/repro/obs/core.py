"""Span-based tracing and metrics with a no-op fast path.

The tracer is process-global and **off by default**: every probe in the
library (``obs.span``, ``obs.counter``, ...) first reads one module
flag, so an untraced run pays a single boolean/env check per probe and
allocates nothing — the property the overhead-guard test pins.

When enabled, events stream to one append-only JSONL sink (the schema
of :mod:`repro.obs.events`):

* **spans** buffer in-process and flush whenever the process's span
  stack empties (so worker processes that are ``terminate()``-d by a
  closing pool lose at most their currently-open span) or the buffer
  reaches :data:`FLUSH_EVERY` events;
* **counters** and **histograms** aggregate in-process and are folded
  into metric events at each flush — a mission incrementing a counter
  thousands of times costs dict arithmetic, not I/O;
* **gauges** write through immediately (last write wins at read time).

Context propagates across ``multiprocessing`` pools through three
environment variables (``REPRO_TRACE_FILE``, ``REPRO_TRACE_RUN``,
``REPRO_TRACE_PARENT``): :func:`enable` exports the sink, and a pool
owner wraps pool construction in :func:`worker_parent` so children —
under ``fork`` *and* ``spawn`` — lazily build their own tracer whose
root spans parent onto the owner's span.  A forked child that inherits
the parent's tracer object is detected by pid and rebound to a fresh
buffer, so parent events are never written twice.

Example:
    >>> import tempfile
    >>> from repro import obs
    >>> path = tempfile.mktemp(suffix=".jsonl")
    >>> _ = obs.enable(path, run_id="doc")
    >>> with obs.span("work", step=1):
    ...     obs.counter("items", 3)
    >>> obs.disable()
    >>> from repro.obs.report import load_trace
    >>> [event["event"] for event in load_trace(path)][:3]
    ['run', 'span', 'metric']
    >>> obs.enabled()
    False

(The trace tail also carries a final ``proc.rss_bytes``/``proc.cpu_s``
resource gauge pair, forced out by :func:`disable`.)
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from ..errors import ObsError
from ..journal import locked_append
from .events import histogram_summary, metric_event, run_event, span_event

__all__ = [
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
]

#: Sink path exported to (and lazily read by) worker processes.
ENV_FILE = "REPRO_TRACE_FILE"
#: Run id exported alongside the sink path.
ENV_RUN = "REPRO_TRACE_RUN"
#: Span id worker-process root spans parent onto.
ENV_PARENT = "REPRO_TRACE_PARENT"
#: Directory per-run sinks are created in (enables tracing when set).
ENV_DIR = "REPRO_TRACE_DIR"
#: Boolean switch enabling tracing into :func:`default_trace_dir`.
ENV_FLAG = "REPRO_TRACE"
#: Opt-in switch for ``tracemalloc`` top-site capture on the run span.
ENV_TRACEMALLOC = "REPRO_TRACEMALLOC"

#: Buffered events are written out at this buffer size (or whenever the
#: span stack empties, whichever comes first).
FLUSH_EVERY = 256

#: Throttle for the per-process resource gauges (``proc.rss_bytes``,
#: ``proc.cpu_s``): at most one pair per interval, emitted at flush
#: time and from :func:`resource_probe` calls on the hot seams.
RESOURCE_INTERVAL_S = 2.0

#: Top allocation sites captured when ``REPRO_TRACEMALLOC`` is set.
_TRACEMALLOC_TOP = 5


def default_trace_dir() -> Path:
    """Where per-run traces land when only ``REPRO_TRACE=1`` is set.

    Mirrors the campaign-store and cache layout: a ``traces`` directory
    beside ``benchmarks/results/campaigns`` and ``.../cache``.
    """
    return Path("benchmarks") / "results" / "traces"


def configured_dir() -> Path | None:
    """The trace directory requested by the environment, or ``None``.

    ``REPRO_TRACE_DIR`` names the directory explicitly;
    ``REPRO_TRACE=1`` selects :func:`default_trace_dir`.  ``None``
    means tracing is not requested — :func:`start_run` is then a no-op,
    which is the library's default state.
    """
    raw = os.environ.get(ENV_DIR)
    if raw:
        return Path(raw).expanduser()
    if os.environ.get(ENV_FLAG, "") in ("1", "true"):
        return default_trace_dir()
    return None


def set_trace_dir(path: Path | str | None) -> None:
    """Request per-run tracing into ``path`` (``None`` clears the request).

    Implemented as an environment export so the request survives into
    worker processes and subcommands; the CLI's global ``--trace`` flag
    calls this before dispatching.
    """
    if path is None:
        os.environ.pop(ENV_DIR, None)
    else:
        os.environ[ENV_DIR] = str(path)


# -- process resource readings ---------------------------------------------

#: Largest RSS observed by any probe in this process (bytes).
_PEAK_RSS = 0


def rss_bytes() -> int | None:
    """This process's current resident set size in bytes, best effort.

    Reads ``/proc/self/statm`` (Linux; field 2 is resident pages);
    falls back to ``resource.getrusage`` — whose ``ru_maxrss`` is the
    *peak*, in KiB on Linux — and returns ``None`` where neither works.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, IndexError, ValueError):
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource

        return int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        )
    except (ImportError, OSError):  # pragma: no cover - exotic platform
        return None


def _note_rss(value: int) -> None:
    global _PEAK_RSS
    if value > _PEAK_RSS:
        _PEAK_RSS = value


def peak_rss_bytes() -> int | None:
    """The largest RSS this process has shown to any probe (bytes).

    Samples the current RSS first, so a call at run end reflects at
    least the final footprint even if no probe fired in between.
    ``None`` when the platform exposes no RSS reading at all.
    """
    current = rss_bytes()
    if current is not None:
        _note_rss(current)
    return _PEAK_RSS or None


def cpu_seconds() -> float:
    """CPU seconds consumed by this process (``time.process_time``)."""
    return time.process_time()


class Span:
    """One live unit of work; context manager that emits on close.

    Obtained from :func:`span` — not constructed by hand.  Attributes
    set via :meth:`set` and failures recorded via :meth:`fail` (or an
    exception propagating through the ``with`` block) end up on the
    emitted span event.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "attrs",
        "status", "error", "cpu_s",
        "_t", "_p0", "_c0", "_tracer", "thread_id",
    )

    def __init__(
        self,
        tracer: "_Tracer",
        name: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = tracer.next_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.status = "ok"
        self.error: str | None = None
        #: CPU seconds consumed while open (set at close; process-wide
        #: ``time.process_time`` delta, so concurrent spans overlap).
        self.cpu_s: float | None = None
        self._t = time.time()
        self._p0 = time.perf_counter()
        self._c0 = time.process_time()
        self._tracer = tracer
        #: The opening thread — the profiler attributes that thread's
        #: stack samples to this span while it is the innermost open.
        self.thread_id = threading.get_ident()

    def set(self, **attrs: Any) -> "Span":
        """Attach (JSON-safe) attributes to this span; returns self."""
        self.attrs.update(attrs)
        return self

    def fail(self, error: str) -> "Span":
        """Mark this span failed, recording the error text; returns self."""
        self.status = "failed"
        self.error = error
        return self

    def __enter__(self) -> "Span":
        self._tracer.push(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None and self.status == "ok":
            self.fail(f"{exc_type.__name__}: {exc}")
        self.cpu_s = time.process_time() - self._c0
        self._tracer.close(self, time.perf_counter() - self._p0)


class _NullSpan:
    """The shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    #: Disabled spans have no identity; callers must treat ``None`` as
    #: "not traced" (e.g. the runner only annotates failure records
    #: with a span id when one exists).
    span_id = None
    name = ""
    cpu_s = None

    def set(self, **attrs: Any) -> "_NullSpan":
        """No-op; returns self."""
        return self

    def fail(self, error: str) -> "_NullSpan":
        """No-op; returns self."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Tracer:
    """Per-process event buffer + aggregation behind the module API."""

    def __init__(self, path: Path, run_id: str, parent: str | None) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.pid = os.getpid()
        #: Span id worker root spans parent onto (from the pool owner).
        self.worker_parent_id = parent
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._buffer: list[dict] = []
        self._stack: list[Span] = []
        self._counters: dict[tuple, float] = {}
        self._hists: dict[tuple, list[float]] = {}
        self._last_flush = time.monotonic()
        # First interval passes silently: short-lived tracers emit one
        # resource pair at disable() instead of noise at every flush.
        self._last_resource = time.monotonic()

    # -- span lifecycle ----------------------------------------------------

    def next_span_id(self) -> str:
        return f"{self.pid:x}.{next(self._ids):x}"

    def current_span_id(self) -> str | None:
        with self._lock:
            if self._stack:
                return self._stack[-1].span_id
        return self.worker_parent_id

    def push(self, item: Span) -> None:
        with self._lock:
            self._stack.append(item)

    def close(self, item: Span, dur_s: float) -> None:
        event = span_event(
            trace=self.run_id,
            span=item.span_id,
            parent=item.parent_id,
            name=item.name,
            t=item._t,
            dur_s=dur_s,
            pid=self.pid,
            status=item.status,
            attrs=item.attrs,
            error=item.error,
            cpu_s=item.cpu_s,
        )
        with self._lock:
            if item in self._stack:
                self._stack.remove(item)
            self._buffer.append(event)
            if not self._stack or len(self._buffer) >= FLUSH_EVERY:
                self._flush_locked()

    def open_span_paths(self) -> dict[int, tuple[str, ...]]:
        """Open-span name paths keyed by opening thread id.

        The sampling profiler's attribution source: for each thread
        that currently holds open spans, the span names in push order
        (outermost first).  Spans opened by different threads interleave
        on the shared stack; grouping by ``thread_id`` untangles them.
        """
        with self._lock:
            paths: dict[int, list[str]] = {}
            for item in self._stack:
                paths.setdefault(item.thread_id, []).append(item.name)
        return {tid: tuple(names) for tid, names in paths.items()}

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def _metric_key(name: str, attrs: dict[str, Any]) -> tuple:
        return (name, tuple(sorted(attrs.items())))

    def add_counter(self, name: str, value: float, attrs: dict) -> None:
        key = self._metric_key(name, attrs)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def observe(self, name: str, value: float, attrs: dict) -> None:
        key = self._metric_key(name, attrs)
        with self._lock:
            agg = self._hists.get(key)
            if agg is None:
                self._hists[key] = [1, value, value, value]
            else:
                agg[0] += 1
                agg[1] += value
                agg[2] = min(agg[2], value)
                agg[3] = max(agg[3], value)

    def set_gauge(self, name: str, value: float, attrs: dict) -> None:
        event = metric_event(
            trace=self.run_id, name=name, kind="gauge", value=float(value),
            t=time.time(), pid=self.pid, attrs=attrs,
        )
        with self._lock:
            self._buffer.append(event)
            if len(self._buffer) >= FLUSH_EVERY:
                self._flush_locked()

    # -- the sink ----------------------------------------------------------

    def emit(self, event: dict) -> None:
        with self._lock:
            self._buffer.append(event)
            self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def flush_if_stale(self, interval_s: float) -> None:
        """Flush when the last write-out is older than ``interval_s``.

        The heartbeat probe's throttle: progress gauges reach the sink
        within about one interval without paying one I/O per event.
        """
        with self._lock:
            if time.monotonic() - self._last_flush >= interval_s:
                self._flush_locked()

    def _resources_locked(self, force: bool = False) -> None:
        """Append throttled per-process resource gauges to the buffer.

        One ``proc.rss_bytes`` + ``proc.cpu_s`` pair at most every
        :data:`RESOURCE_INTERVAL_S` — readers take the max per pid for
        peak RSS and the last write per pid for cumulative CPU.
        ``force`` bypasses the throttle (the final pair at disable).
        """
        now_mono = time.monotonic()
        if not force and (
            now_mono - self._last_resource < RESOURCE_INTERVAL_S
        ):
            return
        self._last_resource = now_mono
        now = time.time()
        rss = rss_bytes()
        if rss is not None:
            _note_rss(rss)
            self._buffer.append(
                metric_event(
                    trace=self.run_id, name="proc.rss_bytes",
                    kind="gauge", value=float(rss), t=now, pid=self.pid,
                    attrs={},
                )
            )
        self._buffer.append(
            metric_event(
                trace=self.run_id, name="proc.cpu_s", kind="gauge",
                value=time.process_time(), t=now, pid=self.pid,
                attrs={},
            )
        )

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        self._resources_locked()
        now = time.time()
        for (name, attr_items), value in self._counters.items():
            self._buffer.append(
                metric_event(
                    trace=self.run_id, name=name, kind="counter",
                    value=value, t=now, pid=self.pid,
                    attrs=dict(attr_items),
                )
            )
        self._counters.clear()
        for (name, attr_items), agg in self._hists.items():
            self._buffer.append(
                metric_event(
                    trace=self.run_id, name=name, kind="histogram",
                    value=histogram_summary(agg[0], agg[1], agg[2], agg[3]),
                    t=now, pid=self.pid, attrs=dict(attr_items),
                )
            )
        self._hists.clear()
        if not self._buffer:
            return
        payload = "".join(
            json.dumps(event, sort_keys=True) + "\n"
            for event in self._buffer
        )
        self._buffer.clear()
        locked_append(self.path, payload.encode("utf-8"))


# -- module state ----------------------------------------------------------

_TRACER: _Tracer | None = None
_STATE_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False
_TRACEMALLOC_ACTIVE = False


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(flush)
        _ATEXIT_REGISTERED = True


def _maybe_start_profiler(tracer: _Tracer, fresh: bool = False) -> None:
    """Start the sampling profiler for this tracer when requested.

    Called once per tracer construction (owner enable, fork rebind,
    spawn lazy build) — never on the per-probe fast path, so the
    disabled overhead contract is untouched.  ``fresh`` (the owner
    path) clears stale shards left by an earlier run of the same id.
    """
    from . import profile as _profile

    if _profile.requested():
        _profile.ensure_started(tracer, fresh=fresh)


def _emit_tracemalloc_top(tracer: _Tracer) -> None:
    """Fold tracemalloc's top allocation sites into run-end gauges."""
    global _TRACEMALLOC_ACTIVE
    _TRACEMALLOC_ACTIVE = False
    import tracemalloc

    if not tracemalloc.is_tracing():  # pragma: no cover - stopped elsewhere
        return
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")[:_TRACEMALLOC_TOP]
    now = time.time()
    with tracer._lock:
        for rank, stat in enumerate(stats, start=1):
            frame = stat.traceback[0]
            tracer._buffer.append(
                metric_event(
                    trace=tracer.run_id,
                    name="mem.alloc_top_bytes",
                    kind="gauge",
                    value=float(stat.size),
                    t=now,
                    pid=tracer.pid,
                    attrs={
                        "site": f"{frame.filename}:{frame.lineno}",
                        "rank": rank,
                    },
                )
            )


def _active() -> _Tracer | None:
    """The process's live tracer, lazily (re)bound.

    Covers three cases: this process enabled tracing itself; a fork
    child inherited the parent's tracer object (detected by pid and
    rebound to a fresh buffer so parent events are not re-written); a
    worker found the sink exported in its environment (the spawn path).
    """
    global _TRACER
    tracer = _TRACER
    if tracer is not None:
        if tracer.pid != os.getpid():
            tracer = _Tracer(
                tracer.path, tracer.run_id, os.environ.get(ENV_PARENT)
            )
            _TRACER = tracer
            _register_atexit()
            _maybe_start_profiler(tracer)
        return tracer
    raw = os.environ.get(ENV_FILE)
    if not raw:
        return None
    with _STATE_LOCK:
        if _TRACER is None:
            _TRACER = _Tracer(
                Path(raw),
                os.environ.get(ENV_RUN, "unkeyed"),
                os.environ.get(ENV_PARENT),
            )
            _register_atexit()
            _maybe_start_profiler(_TRACER)
    return _TRACER


def enabled() -> bool:
    """True when this process is (or would lazily become) traced.

    This is the no-op fast path's guard: one global read plus one
    environ lookup — cheap enough to sit on hot seams untested.
    """
    return _TRACER is not None or ENV_FILE in os.environ


def enable(
    path: Path | str,
    run_id: str,
    name: str | None = None,
    attrs: dict[str, Any] | None = None,
    truncate: bool = True,
) -> Path:
    """Start tracing this process (and its future workers) to ``path``.

    Writes the ``run`` marker event, exports the sink/run id to the
    environment for worker propagation, and returns the sink path.
    ``truncate`` (the default) starts the sink fresh — a re-run of the
    same run id replaces its stale trace rather than appending to it.
    """
    global _TRACER, _TRACEMALLOC_ACTIVE
    if not run_id:
        raise ObsError("trace run_id must be non-empty")
    sink = Path(path)
    with _STATE_LOCK:
        if _TRACER is not None and _TRACER.pid == os.getpid():
            raise ObsError(
                f"tracing already enabled (run {_TRACER.run_id!r}); "
                "call disable() first"
            )
        sink.parent.mkdir(parents=True, exist_ok=True)
        if truncate:
            sink.write_text("", encoding="utf-8")
        _TRACER = _Tracer(sink, run_id, parent=None)
        os.environ[ENV_FILE] = str(sink)
        os.environ[ENV_RUN] = run_id
        os.environ.pop(ENV_PARENT, None)
        _register_atexit()
    _maybe_start_profiler(_TRACER, fresh=truncate)
    if os.environ.get(ENV_TRACEMALLOC, "") in ("1", "true"):
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            _TRACEMALLOC_ACTIVE = True
    _TRACER.emit(
        run_event(
            trace=run_id, name=name or run_id, t=time.time(),
            pid=os.getpid(), attrs=attrs or {},
        )
    )
    return sink


def disable() -> None:
    """Flush and stop tracing; clears the worker-propagation exports.

    Run-end bookkeeping happens here too: the sampling profiler (if
    active) writes its final shard, tracemalloc's top allocation sites
    become ``mem.alloc_top_bytes`` gauges, and one final
    ``proc.rss_bytes``/``proc.cpu_s`` pair is forced out so every
    completed trace carries at least one resource sample per owner.
    """
    global _TRACER
    with _STATE_LOCK:
        tracer = _TRACER
        _TRACER = None
        for key in (ENV_FILE, ENV_RUN, ENV_PARENT):
            os.environ.pop(key, None)
    if tracer is not None and tracer.pid == os.getpid():
        from . import profile as _profile

        _profile.stop_sampler()
        if _TRACEMALLOC_ACTIVE:
            _emit_tracemalloc_top(tracer)
        with tracer._lock:
            tracer._resources_locked(force=True)
        tracer.flush()


def start_run(
    run_id: str, name: str | None = None,
    attrs: dict[str, Any] | None = None,
) -> bool:
    """Open a per-run sink if tracing is requested and not yet active.

    The :class:`~repro.api.session.Session` calls this with the
    experiment's content-hash-keyed run id; the sink becomes
    ``<trace dir>/<run_id>.jsonl``.  Returns True when this call
    enabled tracing (the caller then owns the matching
    :func:`disable`); False when tracing is unconfigured (no-op) or
    already active (the run nests into the existing trace).
    """
    if _TRACER is not None and _TRACER.pid == os.getpid():
        return False
    directory = configured_dir()
    if directory is None:
        return False
    enable(directory / f"{run_id}.jsonl", run_id, name=name, attrs=attrs)
    return True


def span(name: str, **attrs: Any) -> Span | _NullSpan:
    """Open a span (a context manager); no-op while tracing is disabled.

    ``attrs`` must be JSON-serialisable.  The span parents onto the
    innermost open span of this process, or — in a worker — onto the
    span id the pool owner exported via :func:`worker_parent`.
    """
    tracer = _active() if enabled() else None
    if tracer is None:
        return _NULL_SPAN
    return Span(tracer, name, tracer.current_span_id(), attrs)


def counter(name: str, value: float = 1.0, **attrs: Any) -> None:
    """Add ``value`` to a counter (aggregated in-process, summed by reads)."""
    if not enabled():
        return
    tracer = _active()
    if tracer is not None:
        tracer.add_counter(name, float(value), attrs)


def gauge(name: str, value: float, **attrs: Any) -> None:
    """Record a point-in-time value (written through; last write wins)."""
    if not enabled():
        return
    tracer = _active()
    if tracer is not None:
        tracer.set_gauge(name, value, attrs)


def observe(name: str, value: float, **attrs: Any) -> None:
    """Add one sample to a histogram (count/sum/min/max aggregate)."""
    if not enabled():
        return
    tracer = _active()
    if tracer is not None:
        tracer.observe(name, float(value), attrs)


#: Heartbeat gauges reach the sink at least this often (seconds).
HEARTBEAT_FLUSH_S = 1.0


def heartbeat(name: str, value: float, **attrs: Any) -> None:
    """A *live* gauge: written through and flushed at a bounded staleness.

    Identical to :func:`gauge` except the tracer also flushes when its
    last write-out is older than :data:`HEARTBEAT_FLUSH_S` — so a
    ``repro watch`` tailing the sink sees progress within about a
    second of it happening, while a burst of fast heartbeats still
    costs one I/O per interval, not one per event.  No-op (one boolean
    check) while tracing is disabled, like every other probe.
    """
    if not enabled():
        return
    tracer = _active()
    if tracer is not None:
        tracer.set_gauge(name, float(value), attrs)
        tracer.flush_if_stale(HEARTBEAT_FLUSH_S)


def resource_probe() -> None:
    """Buffer throttled resource gauges for this process, if traced.

    The hot seams (per campaign point, per fleet patient) call this so
    long runs chart worker memory growth and CPU burn without waiting
    for a flush; the :data:`RESOURCE_INTERVAL_S` throttle keeps it to
    at most one ``proc.rss_bytes``/``proc.cpu_s`` pair per interval.
    No-op (one boolean check) while tracing is disabled.
    """
    if not enabled():
        return
    tracer = _active()
    if tracer is not None:
        with tracer._lock:
            tracer._resources_locked()


def flush() -> None:
    """Write out everything buffered in this process (no-op when idle)."""
    tracer = _TRACER
    if tracer is not None and tracer.pid == os.getpid():
        tracer.flush()


def current_span_id() -> str | None:
    """The innermost open span id of this process (None untraced)."""
    tracer = _active() if enabled() else None
    return tracer.current_span_id() if tracer is not None else None


def trace_path() -> Path | None:
    """The active sink path, or None while tracing is disabled."""
    tracer = _active() if enabled() else None
    return tracer.path if tracer is not None else None


def trace_run_id() -> str | None:
    """The active run id, or None while tracing is disabled."""
    tracer = _active() if enabled() else None
    return tracer.run_id if tracer is not None else None


@contextmanager
def worker_parent(span_id: str | None) -> Iterator[None]:
    """Export ``span_id`` as the parent of worker-process root spans.

    Wrap pool *construction* in this: both ``fork`` and ``spawn``
    children capture their environment at creation, so every span a
    worker opens at its own top level parents onto the owner's span and
    the report's tree crosses the process boundary.  A ``None`` id (the
    disabled path's null span) makes this a no-op.
    """
    if span_id is None:
        yield
        return
    previous = os.environ.get(ENV_PARENT)
    os.environ[ENV_PARENT] = span_id
    # The owner's pending events must be on disk before children start
    # appending, so readers see parent spans ordered sensibly.
    flush()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_PARENT, None)
        else:
            os.environ[ENV_PARENT] = previous
