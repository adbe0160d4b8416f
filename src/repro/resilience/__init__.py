"""Supervised execution: crash-tolerant pools, retry, and chaos.

The paper explores energy/reliability trade-offs under *injected*
faults; this package applies the same discipline to the infrastructure
that runs those experiments.  Three pieces:

* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`: bounded
  attempts, per-unit timeouts, exponential backoff with deterministic
  jitter.
* :mod:`~repro.resilience.chaos` — a deterministic fault-injection
  layer driven by ``REPRO_CHAOS=<spec>`` (or ``repro --chaos``): worker
  kills, transient exceptions, evaluation delays, ENOSPC-style store
  write errors, and owner-side interrupts, all drawn from a seeded
  schedule so every recovery path is reproducible in CI.
* :mod:`~repro.resilience.supervisor` — :func:`fan_out`, the one
  fan-out seam the campaign runner and the cohort fleet run through,
  and :class:`SupervisedPool`, the worker pool behind it.  Detects dead
  workers (pid liveness) and stuck work (per-unit deadlines), respawns
  and requeues, retries transient faults with backoff, quarantines
  poison work after ``max_attempts`` with a full attempt history, and
  drains gracefully on cancellation.

Work keys, seeds, and content hashes are never touched by any of this:
a retried unit of work is bit-identical to a first-try unit.
"""

from __future__ import annotations

from .chaos import (
    ENV_CHAOS,
    ChaosSpec,
    active_chaos,
    chaos_draw,
    parse_chaos,
)
from .retry import RetryPolicy
from .supervisor import SupervisedPool, WorkOutcome, fan_out, retry_serial

__all__ = [
    "ENV_CHAOS",
    "ChaosSpec",
    "RetryPolicy",
    "SupervisedPool",
    "WorkOutcome",
    "active_chaos",
    "chaos_draw",
    "fan_out",
    "parse_chaos",
    "retry_serial",
]
