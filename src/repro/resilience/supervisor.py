"""The supervised worker pool behind :func:`fan_out`, the one fan-out seam.

``multiprocessing.Pool`` hangs forever if a worker is OOM-killed while
holding a task, and offers no per-task deadline.  :class:`SupervisedPool`
replaces it — at the seam the campaign runner and the cohort fleet share
— with explicit supervision:

* **claim/done protocol** — a worker announces each task it picks up
  before evaluating it, so the owner always knows which unit of work a
  dead pid was holding;
* **dead-worker detection** — pid liveness is polled every tick; a dead
  worker's claimed task is requeued and a replacement process spawned
  (``worker.restarts``);
* **deadlines** — with ``RetryPolicy.timeout_s`` set, a task that
  overstays its claim gets its worker SIGKILLed and is requeued
  (``work.timeouts``);
* **bounded retry** — crash/timeout/transient faults requeue with
  exponential backoff and deterministic jitter (``work.retries``), up
  to ``max_attempts``;
* **quarantine** — work that exhausts its attempts comes back as a
  ``quarantined`` outcome carrying the full attempt history
  (``work.quarantined``) — it never hangs the drain;
* **graceful cancellation** — SIGINT/SIGTERM (or an injected
  ``interrupt:N`` chaos clause) stops dispatch, drains results that
  already completed so the caller can persist them, and raises
  :class:`~repro.errors.RunInterrupted`.

Determinism: the pool never touches work keys, payloads, or seeds — a
retried unit re-runs the same pure function on the same payload, so its
result is bit-identical to a first-try result.  Evaluator-level
failures (a ``status == "failed"`` record) are *results*, not faults:
they complete normally and are not retried within a run, exactly as
before this layer existed.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from multiprocessing.connection import wait as _conn_wait
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import obs
from ..errors import ResilienceError, RunInterrupted
from .chaos import active_chaos
from .retry import RetryPolicy

__all__ = ["SupervisedPool", "WorkOutcome", "fan_out", "retry_serial"]

#: How long shutdown waits for workers to exit before terminating them.
_JOIN_TIMEOUT_S = 1.0

#: How long a cancellation drains already-completed results.
_CANCEL_DRAIN_S = 0.25

#: How often an idle worker checks that its owner is still alive.
_OWNER_POLL_S = 0.5


@dataclass
class WorkOutcome:
    """What the pool hands back for one unit of work.

    Attributes:
        key: the unit's key (campaign point hash, ``patient-<i>``, ...).
        value: the worker function's return value, or ``None`` when the
            unit was quarantined.
        status: ``"completed"`` (the function returned — its value may
            itself describe an evaluation failure) or ``"quarantined"``
            (every attempt died on an infrastructure fault).
        attempts: attempts consumed (1 = clean first try).
        history: one entry per faulted attempt — ``{"attempt",
            "outcome" ("crash" | "timeout" | "error"), "error",
            "elapsed_s"}`` plus ``"traceback"`` when one was captured.
    """

    key: str
    value: Any
    status: str
    attempts: int = 1
    history: list[dict] = field(default_factory=list)

    @property
    def quarantined(self) -> bool:
        return self.status == "quarantined"

    def failure_fields(self) -> dict[str, Any]:
        """The ``failed`` fields a quarantined unit's record carries.

        ``error`` is the last attempt's error text; the attempt history
        is kept with its tracebacks stripped.
        """
        last = self.history[-1] if self.history else {}
        return {
            "status": "failed",
            "error": last.get("error", "quarantined"),
            "attempts": self.attempts,
            "attempt_history": [
                {k: v for k, v in entry.items() if k != "traceback"}
                for entry in self.history
            ],
        }


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread in this process.

    A pool's workers already run side by side; each one keeping
    OpenBLAS's default of a thread per CPU oversubscribes the machine.
    A no-op when numpy bundles no scipy-openblas library exporting the
    setter.
    """
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        return


def _worker_main(fn: Callable[[Any], Any], tasks: Any, conn: Any) -> None:
    """Worker process body: claim, (maybe) suffer chaos, evaluate.

    Messages travel over this worker's own pipe, and ``Connection.send``
    writes in the calling thread — once it returns, the bytes are in
    the kernel and survive a SIGKILL.  (A ``multiprocessing.Queue``
    buffers puts in a feeder thread, so a killed worker could die with
    its claim unsent and the owner would never learn which unit it
    held.)  A private pipe also means a worker killed mid-write can
    only tear its own channel, never wedge a sibling's.
    """
    try:
        # The owner coordinates cancellation; a terminal Ctrl-C reaches
        # the whole process group, and workers dying to it would turn
        # one interrupt into a storm of crash-faults.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from queue import Empty  # worker-side only; the owner never needs it

    _one_blas_thread()
    owner = os.getppid()
    chaos = active_chaos()
    while True:
        try:
            task = tasks.get(timeout=_OWNER_POLL_S)
        except Empty:
            # A SIGKILLed owner never sends the shutdown sentinel; once
            # this process is re-parented, nobody will read its results.
            if os.getppid() != owner:
                return
            continue
        if task is None:
            return
        key, payload, attempt = task
        try:
            # Claim before evaluating: if this process dies mid-task,
            # the owner knows exactly which unit it was holding.
            conn.send(("claim", key, attempt, os.getpid()))
            started = time.perf_counter()
            try:
                chaos.inject_worker(key, attempt)
                value = fn(payload)
                # Probe picklability here so an untransportable result
                # becomes an honest fault instead of tearing the pipe.
                pickle.dumps(value)
            except BaseException as exc:  # noqa: BLE001 - fault transport
                conn.send(
                    (
                        "error",
                        key,
                        attempt,
                        {
                            "error": f"{type(exc).__name__}: {exc}",
                            "traceback": traceback.format_exc(limit=20),
                        },
                        time.perf_counter() - started,
                    )
                )
                continue
            conn.send(
                ("done", key, attempt, value, time.perf_counter() - started)
            )
        except OSError:  # pragma: no cover - owner vanished
            return


class SupervisedPool:
    """Crash-tolerant replacement for ``multiprocessing.Pool`` drains.

    Args:
        fn: module-level worker function, called as ``fn(payload)``;
            expected to capture its own failures (never raise).
        n_workers: worker processes (capped at the number of items).
        policy: retry/timeout/backoff policy (default:
            :meth:`RetryPolicy.from_env`).
        name: label used in retry spans and error text.
        tick_s: supervision cadence — how often liveness and deadlines
            are checked while waiting for results.
        daemon: whether worker processes are daemonic (the default, as
            before this flag existed).  Pass ``False`` when units of
            work spawn *nested* pools — daemonic processes cannot have
            children, and the service fleet's jobs (whole experiments)
            fan out internally.
        on_claim: optional callback ``on_claim(key, pid)`` invoked when
            a worker announces it picked up a unit — the seam a job
            service uses to record queued -> running transitions (with
            the executing worker's pid) in its journal.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        n_workers: int,
        policy: RetryPolicy | None = None,
        name: str = "work",
        tick_s: float = 0.05,
        daemon: bool = True,
        on_claim: Callable[[str, int], None] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ResilienceError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.fn = fn
        self.n_workers = n_workers
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self.name = name
        self.tick_s = tick_s
        self.daemon = daemon
        self.on_claim = on_claim

    def run(
        self, items: Sequence[tuple[str, Any]] | Iterable[tuple[str, Any]]
    ) -> Iterator[list[WorkOutcome]]:
        """Supervise ``items`` to completion, yielding outcome batches.

        Each yielded batch is every unit that finished since the last
        tick — callers persist a batch per tick (one locked store
        append), exactly the cadence the ``apply_async`` drain had.
        Cancellation (signal or injected) raises
        :class:`RunInterrupted` *after* the final batch of completed
        work has been yielded, so everything done is absorbed first.
        """
        items = list(items)
        if len({key for key, _ in items}) != len(items):
            raise ResilienceError(
                f"duplicate work keys passed to supervised pool {self.name!r}"
            )
        if not items:
            return
        yield from self._supervise(
            items, min(self.n_workers, len(items)), feed=None, stop=None
        )

    def serve(
        self,
        feed: Callable[[], Sequence[tuple[str, Any]]],
        stop: Callable[[], bool] | None = None,
    ) -> Iterator[list[WorkOutcome]]:
        """Continuously supervise work arriving over time.

        The streaming mode behind the experiment service's scheduler:
        ``feed()`` is polled every supervision tick for newly available
        ``(key, payload)`` units (return an empty sequence when there
        is nothing to hand out), and outcome batches are yielded with
        :meth:`run`'s exact cadence and retry/requeue/quarantine
        semantics.  A key already accepted in this serve (in flight or
        finished) is ignored — re-delivery by a stateless feed is safe.

        ``stop()`` is consulted once per tick: when it returns true the
        pool stops *feeding* but keeps supervising until everything in
        flight has completed — a graceful drain — then shuts the
        workers down and returns.  With ``stop=None`` the pool serves
        until cancelled.  Cancellation (SIGINT/SIGTERM or an injected
        interrupt) raises :class:`RunInterrupted` after yielding the
        final batch of completed work, exactly like :meth:`run` — the
        caller requeues whatever was still in flight.
        """
        yield from self._supervise([], self.n_workers, feed=feed, stop=stop)

    def _supervise(
        self,
        items: list[tuple[str, Any]],
        n_spawn: int,
        feed: Callable[[], Sequence[tuple[str, Any]]] | None,
        stop: Callable[[], bool] | None,
    ) -> Iterator[list[WorkOutcome]]:
        """Shared supervision core behind :meth:`run` and :meth:`serve`."""
        policy = self.policy
        chaos = active_chaos()
        ctx = multiprocessing.get_context()
        tasks: Any = ctx.Queue()
        workers: dict[int, Any] = {}
        conns: dict[int, Any] = {}

        payloads = {key: payload for key, payload in items}
        attempt_of = {key: 1 for key, _ in items}
        history: dict[str, list[dict]] = {key: [] for key, _ in items}
        claimed: dict[str, tuple[int, float]] = {}
        finished: set[str] = set()
        retry_heap: list[tuple[float, str]] = []
        outstanding = len(items)
        completed_total = 0
        stopping = False
        batch: list[WorkOutcome] = []

        def _admit(fresh: Sequence[tuple[str, Any]]) -> None:
            """Accept newly fed units (serve mode); known keys ignored."""
            nonlocal outstanding
            for key, payload in fresh:
                if key in payloads or key in finished:
                    continue
                payloads[key] = payload
                attempt_of[key] = 1
                history[key] = []
                outstanding += 1
                tasks.put((key, payload, 1))

        def _spawn() -> None:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(self.fn, tasks, writer),
                daemon=self.daemon,
            )
            proc.start()
            # Drop the parent's copy of the write end so EOF on the
            # reader means exactly "this worker is gone".
            writer.close()
            workers[proc.pid] = proc
            conns[proc.pid] = reader

        def _fault(
            key: str,
            attempt: int,
            outcome: str,
            error: str,
            elapsed_s: float,
            tb: str | None = None,
        ) -> None:
            """One attempt died; retry with backoff or quarantine."""
            nonlocal outstanding
            entry = {
                "attempt": attempt,
                "outcome": outcome,
                "error": error,
                "elapsed_s": round(elapsed_s, 6),
            }
            if tb:
                entry["traceback"] = tb
            history[key].append(entry)
            if attempt >= policy.max_attempts:
                finished.add(key)
                outstanding -= 1
                obs.counter("work.quarantined")
                batch.append(
                    WorkOutcome(
                        key=key,
                        value=None,
                        status="quarantined",
                        attempts=attempt,
                        history=history[key],
                    )
                )
                return
            attempt_of[key] = attempt + 1
            obs.counter("work.retries")
            # A zero-duration marker span: retries show up in the trace
            # tree under the campaign/fleet span that owns this drain.
            with obs.span(
                "retry",
                work=key[:12],
                attempt=attempt + 1,
                cause=outcome,
                pool=self.name,
            ):
                pass
            due = time.monotonic() + policy.backoff_s(key, attempt + 1)
            heapq.heappush(retry_heap, (due, key))

        def _finish(key: str, attempt: int, value: Any) -> None:
            nonlocal outstanding
            finished.add(key)
            claimed.pop(key, None)
            outstanding -= 1
            batch.append(
                WorkOutcome(
                    key=key,
                    value=value,
                    status="completed",
                    attempts=attempt,
                    history=history[key],
                )
            )

        def _handle(msg: tuple) -> None:
            kind, key = msg[0], msg[1]
            if key in finished:
                return
            if kind == "claim":
                _, _, attempt, pid = msg
                if attempt == attempt_of[key]:
                    claimed[key] = (pid, time.monotonic())
                    if self.on_claim is not None:
                        self.on_claim(key, pid)
            elif kind == "done":
                # A completed result is accepted even if a raced retry
                # of the same key is pending — results are bit-identical
                # by construction, and first-done wins.
                _, _, attempt, value, _elapsed = msg
                _finish(key, attempt, value)
            elif kind == "error":
                _, _, attempt, data, elapsed_s = msg
                if attempt != attempt_of[key]:
                    return  # stale fault from a superseded attempt
                claimed.pop(key, None)
                _fault(
                    key, attempt, "error",
                    data["error"], elapsed_s, data.get("traceback"),
                )

        def _drain_conn(conn: Any) -> None:
            """Absorb every ready message; on EOF retire the channel."""
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # The worker hung up (death closes its write end).
                    # Only the channel is retired here — requeueing what
                    # the pid still held is _check_workers' job.
                    for pid, open_conn in list(conns.items()):
                        if open_conn is conn:
                            del conns[pid]
                    conn.close()
                    return
                _handle(msg)
                if not conn.poll():
                    return

        def _check_workers() -> None:
            """Requeue work held by dead pids; respawn replacements."""
            now = time.monotonic()
            dead = [
                pid for pid, proc in workers.items() if not proc.is_alive()
            ]
            for pid in dead:
                workers.pop(pid).join(timeout=0)
                conn = conns.pop(pid, None)
                if conn is not None:
                    # Absorb everything the worker managed to send
                    # before dying — possibly the done message itself —
                    # so only truly lost work is requeued.
                    try:
                        while conn.poll(0):
                            _handle(conn.recv())
                    except (EOFError, OSError):
                        pass
                    conn.close()
                lost = [
                    key for key, (cpid, _) in claimed.items() if cpid == pid
                ]
                for key in lost:
                    _, claimed_at = claimed.pop(key)
                    _fault(
                        key, attempt_of[key], "crash",
                        f"worker pid {pid} died holding the task",
                        now - claimed_at,
                    )
                if outstanding or (feed is not None and not stopping):
                    obs.counter("worker.restarts")
                    _spawn()

        def _check_deadlines() -> None:
            if policy.timeout_s is None:
                return
            now = time.monotonic()
            for key, (pid, claimed_at) in list(claimed.items()):
                if now - claimed_at <= policy.timeout_s:
                    continue
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - already gone
                    pass
                claimed.pop(key, None)
                obs.counter("work.timeouts")
                _fault(
                    key, attempt_of[key], "timeout",
                    f"timed out after {policy.timeout_s}s "
                    f"(worker pid {pid} killed)",
                    now - claimed_at,
                )
                # The pid stays in ``workers`` on purpose: the next
                # _check_workers pass drains its pipe (it may have been
                # mid-send of a *different* key's claim), requeues
                # whatever it held, and spawns the replacement.

        def _release_due_retries() -> None:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, key = heapq.heappop(retry_heap)
                if key in finished:
                    continue
                tasks.put((key, payloads[key], attempt_of[key]))

        cancelled = threading.Event()
        restored: list[tuple[int, Any]] = []
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous = signal.signal(
                    signum, lambda *_args: cancelled.set()
                )
                restored.append((signum, previous))
        except ValueError:
            # Not the main thread: signal-based cancellation is the
            # owner process's job; injected interrupts still work.
            restored = []

        try:
            for _ in range(n_spawn):
                _spawn()
            for key, payload in items:
                tasks.put((key, payload, 1))

            while True:
                # A drain that just emptied exits *before* the signal
                # check: completed work beats a late Ctrl-C, exactly as
                # the historical `while outstanding:` loop behaved.
                if feed is not None and not stopping:
                    stopping = stop is not None and stop()
                if not outstanding and (feed is None or stopping):
                    break
                if cancelled.is_set():
                    self._drain_completed(conns, _handle)
                    if batch:
                        yield list(batch)
                    raise RunInterrupted(
                        f"{self.name} pool cancelled by signal; "
                        f"{completed_total + len(batch)} completed units "
                        "persisted"
                    )
                batch.clear()
                if feed is not None and not stopping:
                    _admit(feed())
                _release_due_retries()
                if conns:
                    for conn in _conn_wait(
                        list(conns.values()), timeout=self.tick_s
                    ):
                        _drain_conn(conn)
                else:  # every worker dead at once; respawn below
                    time.sleep(self.tick_s)
                _check_workers()
                _check_deadlines()
                if batch:
                    completed_total += len(batch)
                    yield list(batch)
                    # Owner-side chaos site: a deterministic stand-in
                    # for mid-run SIGINT, checked after the caller has
                    # absorbed the batch (the generator resumes here).
                    chaos.check_interrupt(completed_total)
        finally:
            for signum, previous in restored:
                signal.signal(signum, previous)
            self._shutdown(tasks, workers)
            for conn in conns.values():
                conn.close()

    @staticmethod
    def _drain_completed(conns: dict[int, Any], handle: Callable) -> None:
        """Briefly absorb results that finished before a cancellation."""
        deadline = time.monotonic() + _CANCEL_DRAIN_S
        for conn in list(conns.values()):
            while time.monotonic() < deadline:
                try:
                    if not conn.poll(0):
                        break
                    handle(conn.recv())
                except (EOFError, OSError):
                    break

    @staticmethod
    def _shutdown(tasks: Any, workers: dict[int, Any]) -> None:
        for _ in workers:
            tasks.put(None)
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        for proc in workers.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in workers.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - terminate ignored
                proc.kill()
                proc.join(timeout=_JOIN_TIMEOUT_S)
        tasks.cancel_join_thread()


def retry_serial(
    fn: Callable[[Any], Any],
    key: str,
    payload: Any,
    policy: RetryPolicy | None = None,
    name: str = "work",
) -> WorkOutcome:
    """In-process equivalent of one supervised unit of work.

    The serial execution paths (``n_workers == 1``) share the retry and
    chaos semantics of the pool, minus the sites that need a separate
    process: injected kills are skipped (killing the only process is a
    real crash, not a drill) and there are no deadlines.
    """
    policy = policy if policy is not None else RetryPolicy.from_env()
    chaos = active_chaos()
    history: list[dict] = []
    attempt = 1
    while True:
        started = time.perf_counter()
        try:
            chaos.inject_worker(key, attempt, allow_kill=False)
            value = fn(payload)
        except RunInterrupted:
            raise
        except Exception as exc:  # noqa: BLE001 - fault capture
            history.append(
                {
                    "attempt": attempt,
                    "outcome": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "elapsed_s": round(time.perf_counter() - started, 6),
                    "traceback": traceback.format_exc(limit=20),
                }
            )
            if attempt >= policy.max_attempts:
                obs.counter("work.quarantined")
                return WorkOutcome(
                    key=key,
                    value=None,
                    status="quarantined",
                    attempts=attempt,
                    history=history,
                )
            obs.counter("work.retries")
            with obs.span(
                "retry",
                work=key[:12],
                attempt=attempt + 1,
                cause="error",
                pool=name,
            ):
                pass
            time.sleep(policy.backoff_s(key, attempt + 1))
            attempt += 1
            continue
        return WorkOutcome(
            key=key,
            value=value,
            status="completed",
            attempts=attempt,
            history=history,
        )


def fan_out(
    fn: Callable[[Any], Any],
    work: Sequence[tuple[str, Any]],
    n_workers: int,
    *,
    name: str,
    parent_span_id: str | None = None,
) -> Iterator[list[WorkOutcome]]:
    """Evaluate ``(key, payload)`` units, yielding outcome batches.

    With one effective worker (``min(n_workers, len(work)) <= 1``) each
    unit runs in-process through :func:`retry_serial` and comes back as
    its own one-outcome batch, so the caller persists every unit before
    the next one starts.  The ``interrupt:N`` chaos site fires only
    when the caller resumes the generator — after unit ``N`` was
    absorbed.  Otherwise the units drain through a
    :class:`SupervisedPool`, whose workers (respawns included) parent
    their spans onto ``parent_span_id``.
    """
    n_spawn = min(n_workers, len(work))
    if n_spawn <= 1:
        chaos = active_chaos()
        for n_done, (key, payload) in enumerate(work, start=1):
            yield [retry_serial(fn, key, payload, name=name)]
            chaos.check_interrupt(n_done)
        return
    with obs.worker_parent(parent_span_id):
        yield from SupervisedPool(fn, n_spawn, name=name).run(work)
