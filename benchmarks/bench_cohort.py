"""Cohort benchmarks: fleet throughput and calibration-cache economics.

Measures what makes population-scale simulation tractable: patient
missions stream at fleet rates (patients/second), while the shared disk
calibration cache keeps the expensive fault-injection work deduplicated
— the second policy's fleet should be served almost entirely from cache.

The table reports patients/s per policy plus the cache's hit rate and
fleet-wide calibration count, and lands in
``results/cohort_fleet.txt``.

Scale knobs (environment):

* ``REPRO_COHORT_PATIENTS`` — fleet size (default 80; CI smoke uses a
  smaller fleet, full-fidelity studies a 1000+ one).
* ``REPRO_COHORT_SCALE`` — mission duration scale (default 0.02;
  ``1.0`` streams the full 24 h timelines).
* ``REPRO_COHORT_WORKERS`` — worker processes (default 1, which keeps
  the in-process cache counters complete for the hit-rate report).
"""

from __future__ import annotations

import os
import time

from repro.cache import computed_events, shared_cache
from repro.cohort import CohortSpec, FleetSimulator, median_survival_days

POLICY_TOKENS = ("hysteresis", "soc")


def bench_patients() -> int:
    return int(os.environ.get("REPRO_COHORT_PATIENTS", "80"))


def bench_scale() -> float:
    return float(os.environ.get("REPRO_COHORT_SCALE", "0.02"))


def bench_workers() -> int:
    return int(os.environ.get("REPRO_COHORT_WORKERS", "1"))


def test_fleet_throughput_and_cache(
    benchmark, report_sink, tmp_path_factory, monkeypatch
):
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cohort-cache"))
    )
    # A cold start: a fresh cache root is a fresh shared cache, with an
    # empty memory layer and an empty disk.

    spec = CohortSpec(
        name="bench-fleet",
        size=bench_patients(),
        duration_scale=bench_scale(),
        voltages=(0.65, 0.7, 0.8),
    )
    fleet = FleetSimulator(spec, n_probe=2, probe_duration_s=2.0)
    workers = bench_workers()

    rows = []
    cold = fleet.run(POLICY_TOKENS[0], n_workers=workers)
    rows.append((POLICY_TOKENS[0] + " (cold)", cold))
    # The second policy's fleet re-needs the same calibration set; the
    # shared cache is the one memo, so every hit shows on its counters —
    # the fleet-wide dedup this subsystem exists for.
    warm = benchmark.pedantic(
        lambda: fleet.run(POLICY_TOKENS[1], n_workers=workers),
        rounds=1,
        iterations=1,
    )
    rows.append((POLICY_TOKENS[1] + " (warm)", warm))

    stats = shared_cache().stats
    n_calibrations = len(set(computed_events()))
    # What per-mission calibration (no sharing) would have cost: every
    # mission recalibrates each of its (segment, rung) pairs.
    naive = 0
    for policy in POLICY_TOKENS:
        for index in range(spec.size):
            mission = spec.mission_for(spec.patient(index))
            n_rungs = len(mission.voltages) * len(mission.emts)
            naive += len({seg.signature for seg in mission.segments}) * n_rungs
    hours = 24.0 * bench_scale()
    lines = [
        f"Population fleet — {spec.size} patients, ~{hours:.1f} h scaled "
        f"missions, {workers} worker(s)",
        f"{'policy':>20s}  {'patients/s':>10s}  {'survive':>8s}  "
        f"{'p50 life':>9s}  {'failed':>6s}",
        f"{'-' * 20}  {'-' * 10}  {'-' * 8}  {'-' * 9}  {'-' * 6}",
    ]
    for name, result in rows:
        summary = result.summary()
        lines.append(
            f"{name:>20s}  {result.patients_per_s:10.1f}  "
            f"{summary['survival_fraction'] * 100:7.1f}%  "
            f"{median_survival_days(result.ok_rows()):7.3f} d  "
            f"{summary['n_failed']:6d}"
        )
    lines += [
        "",
        f"fleet-wide calibrations computed: {n_calibrations} of {naive} "
        f"a per-mission calibrator would run "
        f"({(1 - n_calibrations / naive) * 100:.1f}% deduplicated)",
        f"shared-cache lookups this process: {stats.lookups} "
        f"({stats.hit_rate * 100:.1f}% hits)",
    ]
    report_sink.add("cohort_fleet", "\n".join(lines))

    # The fleet must stream faster than one patient-mission per second,
    # the shared cache must absorb most of the naive calibration work,
    # and the warm fleet (calibrations on disk) must outpace the cold one.
    assert all(result.patients_per_s > 1.0 for _, result in rows)
    assert not cold.failures() and not warm.failures()
    assert n_calibrations < 0.5 * naive
    if workers == 1:
        assert stats.hit_rate > 0.3
        assert warm.patients_per_s > cold.patients_per_s
