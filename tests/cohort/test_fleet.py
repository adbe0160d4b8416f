"""Tests for the fleet simulator: seeding invariance, shared calibration.

Covers the PR's acceptance gates:

* patient ``k``'s mission result is bit-identical whether simulated
  alone, in a different fleet order, or under a different worker count;
* a 1000-patient, 2-policy fleet on 4 workers performs every (app,
  segment, operating-point) calibration exactly once fleet-wide
  (audited through the disk cache's event log), and its population
  statistics are reproducible for a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.cache import computed_events, shared_cache
from repro.cohort import (
    CohortSpec,
    FleetSimulator,
    PatientModel,
    population_frontier,
    survival_curve,
)
from repro.errors import CohortError


def small_cohort(**overrides) -> CohortSpec:
    """A cohort tiny enough for unit tests (short scaled missions)."""
    defaults = dict(
        name="unit-fleet",
        size=6,
        model=PatientModel(
            record_mix=(("100", 0.6), ("119", 0.4)),
            environment_mix=((1.0, 0.7), (1.5, 0.3)),
        ),
        duration_scale=0.01,
        voltages=(0.65, 0.8),
    )
    defaults.update(overrides)
    return CohortSpec(**defaults)


def fleet(spec: CohortSpec | None = None, **kwargs) -> FleetSimulator:
    kwargs.setdefault("n_probe", 2)
    kwargs.setdefault("probe_duration_s", 2.0)
    return FleetSimulator(spec or small_cohort(), **kwargs)


class TestFleetBasics:
    def test_rows_cover_cohort_in_order(self):
        result = fleet().run("hysteresis")
        assert [row["patient"] for row in result.rows] == list(range(6))
        assert all(row["status"] == "ok" for row in result.rows)
        assert result.patients_per_s > 0

    def test_rows_merge_profile_and_mission(self):
        row = fleet().run("hysteresis").rows[0]
        for key in ("record", "noise_gain", "battery_scale", "seed"):
            assert key in row
        for key in ("lifetime_days", "worst_snr_db", "n_violations"):
            assert key in row

    def test_summary_population_metrics(self):
        summary = fleet().run("hysteresis").summary()
        assert summary["n_patients"] == 6
        assert summary["n_failed"] == 0
        assert 0.0 <= summary["survival_fraction"] <= 1.0
        assert summary["lifetime_p5_days"] <= summary["lifetime_p50_days"]
        assert summary["quality_p10_db"] <= summary["quality_p50_db"]

    def test_policy_payload_forms(self):
        simulator = fleet()
        by_name = simulator.run("hysteresis")
        by_dict = simulator.run(
            {"name": "static", "params": {"index": 0}}
        )
        assert by_name.summary()["policy"] == "hysteresis"
        assert by_dict.summary()["policy"] == "static(index=0)"

    def test_bad_worker_count(self):
        with pytest.raises(CohortError, match="n_workers"):
            fleet().run("hysteresis", n_workers=0)

    def test_failures_captured_not_fatal(self):
        result = fleet().run("no-such-policy")
        assert len(result.failures()) == 6
        assert all("unknown policy" in row["error"] for row in result.rows)
        summary = result.summary()
        assert summary["n_failed"] == 6
        assert "survival_fraction" not in summary

    def test_non_repro_errors_also_captured(self, monkeypatch):
        # A buggy custom policy raising outside the ReproError hierarchy
        # must still become a failed row, not kill the fleet (or pool).
        import repro.cohort.fleet as fleet_module

        def boom(self, policy):
            raise ValueError("custom policy bug")

        monkeypatch.setattr(fleet_module.MissionSimulator, "run", boom)
        result = fleet().run("hysteresis")
        assert len(result.failures()) == 6
        assert all(
            row["error"] == "ValueError: custom policy bug"
            for row in result.rows
        )

    def test_progress_callback(self):
        seen = []
        fleet().run(
            "hysteresis",
            progress=lambda done, total, row: seen.append((done, total)),
        )
        assert seen == [(k + 1, 6) for k in range(6)]


class TestSeedingInvariance:
    """Satellite: the per-patient seeding property, three ways."""

    def test_alone_vs_fleet(self):
        simulator = fleet()
        full = simulator.run("hysteresis")
        for index in (0, 3, 5):
            assert simulator.simulate_patient(index, "hysteresis") == (
                full.rows[index]
            )

    def test_order_invariance(self):
        simulator = fleet()
        forward = simulator.run("hysteresis")
        shuffled = simulator.run(
            "hysteresis", indices=[4, 0, 5, 2, 1, 3]
        )
        assert shuffled.rows == forward.rows

    def test_worker_count_invariance(self):
        simulator = fleet()
        serial = simulator.run("hysteresis")
        pooled = simulator.run("hysteresis", n_workers=3)
        assert pooled.rows == serial.rows

    def test_sub_fleet_matches_full_fleet(self):
        simulator = fleet()
        full = simulator.run("hysteresis")
        sub = simulator.run("hysteresis", indices=[1, 4])
        assert sub.rows == [full.rows[1], full.rows[4]]


class TestThousandPatientFleet:
    """Acceptance: 1000 patients x 2 policies on 4 workers, with every
    calibration executed exactly once fleet-wide.

    The cohort's 24 h mission templates run duration-scaled (shape and
    calibration set preserved; only the streamed window count shrinks),
    keeping the tier-1 suite fast while the benchmark runs fleets at
    full length.
    """

    @pytest.fixture(scope="class")
    def thousand_run(self, tmp_path_factory):
        import os

        root = tmp_path_factory.mktemp("fleet-cache")
        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(root)
        # A fresh cache root is a fresh shared cache, memory layer
        # included, so the event log is a complete record of this
        # fleet's calibration work.
        try:
            spec = CohortSpec(
                name="acceptance-fleet",
                size=1000,
                duration_scale=0.01,
                voltages=(0.65, 0.8),
            )
            simulator = FleetSimulator(
                spec, n_probe=2, probe_duration_s=2.0
            )
            results = {
                policy: simulator.run(policy, n_workers=4)
                for policy in ("hysteresis", "soc")
            }
            yield spec, simulator, results, root
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous

    def test_fleet_completes(self, thousand_run):
        _, _, results, _ = thousand_run
        for result in results.values():
            assert len(result.rows) == 1000
            assert not result.failures()
            assert result.n_workers == 4

    def test_calibrations_exactly_once_fleet_wide(self, thousand_run):
        _, _, _, root = thousand_run
        events = computed_events(root)
        assert events, "fleet ran no calibrations?"
        # 2000 patient-missions across 4 workers and 2 policies, yet no
        # calibration hash was ever computed twice ...
        assert len(events) == len(set(events))
        # ... and the discrete patient mixes kept the fleet-wide
        # calibration set small — a few hundred models serve 2000
        # missions (the economics of the shared cache).
        assert len(set(events)) < 400
        assert shared_cache().info()["entries"] == len(set(events))

    def test_population_statistics_reproducible(self, thousand_run):
        spec, simulator, results, _ = thousand_run
        # Re-simulating any sub-fleet reproduces the stored rows bit for
        # bit (fixed seed, any order, any worker count) ...
        probe = [0, 313, 999]
        resim = simulator.run("hysteresis", indices=probe)
        assert resim.rows == [
            results["hysteresis"].rows[index] for index in probe
        ]
        # ... so the population curves and frontier derived from the
        # rows are reproducible too.
        curve = survival_curve(results["hysteresis"].rows, n_points=11)
        assert curve[0][1] == 1.0
        alive = [fraction for _, fraction in curve]
        assert alive == sorted(alive, reverse=True)
        summaries = [result.summary() for result in results.values()]
        frontier = population_frontier(summaries)
        assert frontier
        assert {s["policy"] for s in frontier} <= {
            s["policy"] for s in summaries
        }
