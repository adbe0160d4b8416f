"""Population-scale fleet simulation: thousands of missions, one cache.

:class:`FleetSimulator` streams every patient of a
:class:`~repro.cohort.population.CohortSpec` through the existing
:class:`~repro.runtime.MissionSimulator` under one policy.  What makes a
1000-patient x 24 h fleet tractable:

* **shared calibration** — quality/energy models are keyed by content in
  the process-safe disk cache (:mod:`repro.cache`), so each ``(app,
  segment signature, operating point)`` is calibrated exactly once
  across the whole fleet *and* all worker processes (the cache's event
  log makes that auditable);
* **patient-level parallelism** — patients fan out through
  :func:`~repro.resilience.fan_out`: a dead or stuck pool worker is
  detected, respawned, and its patient requeued, so an OOM-killed
  worker costs one retry instead of hanging the fleet.
  Per-patient seeding depends on ``(cohort seed, patient index)`` only,
  so results are bit-identical for any worker count, simulation order,
  or retry count;
* **batched streaming** — the mission simulator prices windows per rung
  and batches its environment draws, so the per-window cost is one
  policy decision and a few array reads.

Failures are captured per patient, not fatal: a patient whose mission
raises becomes a ``status == "failed"`` row and the fleet keeps going —
the same discipline as the campaign runner.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import obs
from ..api.serde import policy_label
from ..cache import shared_cache
from ..energy.technology import TECH_32NM_LP, Technology
from ..errors import CohortError
from ..resilience import fan_out
from ..runtime.policy import policy_from_dict
from ..runtime.simulator import MissionSimulator
from .population import CohortSpec

__all__ = ["FleetSimulator", "FleetResult", "simulate_patient"]

#: Signature of the optional progress callback:
#: ``progress(n_done, n_total, row)`` after every completed patient.
ProgressFn = Callable[[int, int, dict], None]


def simulate_patient(
    cohort: CohortSpec,
    index: int,
    policy: str | dict[str, Any],
    tech: Technology = TECH_32NM_LP,
    n_probe: int = 3,
    probe_duration_s: float = 4.0,
) -> dict[str, Any]:
    """Simulate one patient's mission; the fleet's unit of work.

    ``policy`` is the JSON-safe campaign form (registry name or
    ``{"name", "params"}`` dict) — a fresh, stateless-from-the-outside
    policy instance is built per patient.  Returns a flat row merging
    the patient's profile with their
    :class:`~repro.runtime.MissionResult` metrics and
    ``status == "ok"``; a failure is captured as a ``status == "failed"``
    row carrying the error text.  Rows are bit-identical wherever and in
    whatever order they are computed (the per-patient seeding
    guarantee).
    """
    profile = cohort.patient(index)
    row: dict[str, Any] = profile.to_dict()
    # In a pool worker this span is the top level, so closing it
    # flushes — pool teardown cannot lose completed patients' events.
    with obs.span(
        "patient", cohort=cohort.name, patient=profile.index,
    ) as patient_span:
        try:
            simulator = MissionSimulator(
                cohort.mission_for(profile),
                tech=tech,
                n_probe=n_probe,
                probe_duration_s=probe_duration_s,
            )
            result = simulator.run(policy_from_dict(policy))
        except Exception as exc:  # noqa: BLE001 - failure capture is the point
            row["status"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
            obs.counter("fleet.patients_failed")
            patient_span.fail(row["error"])
            return row
        row.update(result.to_dict())
        row["status"] = "ok"
        obs.counter("fleet.patients_ok")
        # Throttled per-process resource gauges (worker RSS/CPU) at
        # the per-patient seam — one boolean check when untraced.
        obs.resource_probe()
        return row


@dataclass
class FleetResult:
    """Outcome of one cohort x policy fleet run.

    Attributes:
        cohort_name / policy: what ran.
        rows: one row per patient, in patient-index order — profile
            fields plus mission metrics (``status == "ok"``) or the
            captured ``error`` (``status == "failed"``).
        elapsed_s: wall-clock time of the run.
        n_workers: worker processes used.
        cache: shared-cache diagnostics snapshot taken after the run
            (disk entries are fleet-wide; the process counters cover
            this process only, so they are complete only for
            single-worker runs).
    """

    cohort_name: str
    policy: Any
    rows: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    n_workers: int = 1
    cache: dict[str, Any] = field(default_factory=dict)

    def ok_rows(self) -> list[dict]:
        """Rows of patients whose mission completed."""
        return [row for row in self.rows if row["status"] == "ok"]

    def failures(self) -> list[dict]:
        """Rows of patients whose mission raised (with ``error`` text)."""
        return [row for row in self.rows if row["status"] == "failed"]

    @property
    def patients_per_s(self) -> float:
        """Fleet throughput of this run."""
        if self.elapsed_s <= 0:
            return 0.0
        return len(self.rows) / self.elapsed_s

    def summary(self) -> dict[str, Any]:
        """Population metrics: the fleet reduced to one JSON-safe dict.

        Lifetime percentiles answer the deployment question the paper's
        single-device numbers cannot: ``lifetime_p5_days`` is the
        guarantee 95 % of wearers exceed, ``quality_p10_db`` the output
        quality the worst decile of patients still gets (each patient
        represented by their worst window).
        """
        ok = self.ok_rows()
        summary: dict[str, Any] = {
            "cohort": self.cohort_name,
            "policy": policy_label(self.policy),
            "n_patients": len(self.rows),
            "n_failed": len(self.failures()),
            "elapsed_s": self.elapsed_s,
            "patients_per_s": self.patients_per_s,
            "cache": dict(self.cache),
        }
        if not ok:
            return summary
        lifetimes = np.asarray([row["lifetime_days"] for row in ok])
        worst = np.asarray([row["worst_snr_db"] for row in ok])
        mean_snr = np.asarray([row["mean_snr_db"] for row in ok])
        power = np.asarray([row["average_power_uw"] for row in ok])
        windows = np.asarray([row["n_windows"] for row in ok])
        violations = np.asarray([row["n_violations"] for row in ok])
        summary.update(
            {
                "survival_fraction": float(
                    np.mean([row["survived"] for row in ok])
                ),
                "lifetime_p5_days": float(np.percentile(lifetimes, 5.0)),
                "lifetime_p50_days": float(np.percentile(lifetimes, 50.0)),
                "quality_p10_db": float(np.percentile(worst, 10.0)),
                "quality_p50_db": float(np.percentile(worst, 50.0)),
                "mean_snr_db": float(mean_snr.mean()),
                "average_power_uw": float(power.mean()),
                "violations_per_1k_windows": float(
                    1000.0 * violations.sum() / max(1, windows.sum())
                ),
            }
        )
        return summary


class FleetSimulator:
    """Run a cohort's fleet of patient missions under one policy.

    Args:
        cohort: the population to simulate.
        tech: technology node (default: the paper's 32 nm LP node).
        n_probe / probe_duration_s: calibration fidelity knobs, passed
            through to every patient's :class:`MissionSimulator`.

    Example:
        >>> from repro.cohort import CohortSpec, FleetSimulator
        >>> fleet = FleetSimulator(
        ...     CohortSpec(name="tiny", size=2, duration_scale=0.005)
        ... )
        >>> result = fleet.run("hysteresis")
        >>> [row["status"] for row in result.rows]
        ['ok', 'ok']
    """

    def __init__(
        self,
        cohort: CohortSpec,
        tech: Technology = TECH_32NM_LP,
        n_probe: int = 3,
        probe_duration_s: float = 4.0,
    ) -> None:
        self.cohort = cohort
        self.tech = tech
        self.n_probe = n_probe
        self.probe_duration_s = probe_duration_s

    def _knobs(self) -> dict[str, Any]:
        return {
            "tech": self.tech,
            "n_probe": self.n_probe,
            "probe_duration_s": self.probe_duration_s,
        }

    def simulate_patient(
        self, index: int, policy: str | dict[str, Any]
    ) -> dict[str, Any]:
        """One patient's row, exactly as a fleet run would produce it."""
        return simulate_patient(
            self.cohort, index, policy, **self._knobs()
        )

    def run(
        self,
        policy: str | dict[str, Any],
        n_workers: int = 1,
        indices: Sequence[int] | None = None,
        progress: ProgressFn | None = None,
    ) -> FleetResult:
        """Simulate the fleet (or the sub-fleet ``indices``).

        Args:
            policy: JSON-safe policy payload, rebuilt per patient.
            n_workers: worker processes; ``1`` runs in-process.
            indices: patient indices to simulate (default: the whole
                cohort).  Order does not affect any patient's result —
                rows always come back sorted by patient index.
            progress: optional callback after every patient with
                ``(n_done, n_total, row)`` (completion order).
        """
        if n_workers < 1:
            raise CohortError(f"n_workers must be >= 1, got {n_workers}")
        todo = (
            list(range(self.cohort.size))
            if indices is None
            else list(indices)
        )
        started = time.perf_counter()
        rows: list[dict] = []
        label = policy_label(policy)

        with obs.span(
            "fleet",
            cohort=self.cohort.name,
            policy=label,
            patients=len(todo),
            workers=n_workers,
        ) as fleet_span:
            # One patient per unit of work; a quarantined patient
            # becomes a failed row.  The partial ships once per worker
            # process, not once per patient.
            simulate = functools.partial(
                simulate_patient, self.cohort, policy=policy, **self._knobs()
            )
            for outcomes in fan_out(
                simulate,
                [(f"patient-{index}", index) for index in todo],
                n_workers,
                name="fleet",
                parent_span_id=fleet_span.span_id,
            ):
                for outcome in outcomes:
                    row = outcome.value
                    if outcome.quarantined:
                        index = int(outcome.key.rsplit("-", 1)[1])
                        row = {
                            **self.cohort.patient(index).to_dict(),
                            **outcome.failure_fields(),
                        }
                    rows.append(row)
                    if progress is not None:
                        progress(len(rows), len(todo), row)
                    obs.heartbeat(
                        "fleet.progress", len(rows),
                        cohort=self.cohort.name, policy=label,
                        total=len(todo),
                    )
            elapsed = time.perf_counter() - started
            if obs.enabled():
                if elapsed > 0:
                    obs.gauge(
                        "fleet.patients_per_s", len(rows) / elapsed
                    )
                # Per-phenotype population gauges: the worst-decile
                # quality and survival each record class saw, the
                # series alert rules put floors under.
                ok = [row for row in rows if row["status"] == "ok"]
                by_record: dict[str, list[dict]] = {}
                for row in ok:
                    by_record.setdefault(str(row["record"]), []).append(row)
                for record, group in sorted(by_record.items()):
                    worst = [row["worst_snr_db"] for row in group]
                    obs.gauge(
                        "fleet.quality_p10_db",
                        float(np.percentile(worst, 10.0)),
                        cohort=self.cohort.name, policy=label,
                        phenotype=record,
                    )
                    obs.gauge(
                        "fleet.survival_fraction",
                        float(np.mean([row["survived"] for row in group])),
                        cohort=self.cohort.name, policy=label,
                        phenotype=record,
                    )
                if len(rows) - len(ok):
                    obs.counter(
                        "fleet.patients_failed", len(rows) - len(ok)
                    )
        rows.sort(key=lambda row: row["patient"])
        return FleetResult(
            cohort_name=self.cohort.name,
            policy=policy,
            rows=rows,
            elapsed_s=elapsed,
            n_workers=n_workers,
            cache=shared_cache().info(),
        )
