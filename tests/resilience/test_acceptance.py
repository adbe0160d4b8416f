"""The PR's acceptance gates, pinned as tests.

A campaign and a cohort fleet disturbed by deterministic chaos (worker
kills, transient exceptions) must complete with results *bit-identical*
to an undisturbed run's — recovery must be invisible in the science
output.  An interrupted campaign must leave a loadable store behind and
resume to the same answer.  Seeds are *searched*, not guessed: each
test derives one from the actual work keys so the scenario (some faults
fire, every key converges within the retry budget) holds by
construction.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.cohort import CohortSpec, FleetSimulator, PatientModel
from repro.errors import RunInterrupted
from repro.resilience import chaos_draw

#: Per-site fault probability of the disturbance the tests inject.
P = 0.3
MAX_ATTEMPTS = 3  # the default RetryPolicy budget


def _faults(seed: int, key: str, attempt: int) -> bool:
    return (
        chaos_draw(seed, "kill", key, attempt) < P
        or chaos_draw(seed, "raise", key, attempt) < P
    )


def converging_seed(keys: list[str]) -> int:
    """A seed where >=1 key faults yet every key converges in budget."""
    for seed in range(500):
        some_fault = any(_faults(seed, key, 1) for key in keys)
        all_converge = all(
            not all(
                _faults(seed, key, attempt)
                for attempt in range(1, MAX_ATTEMPTS + 1)
            )
            for key in keys
        )
        if some_fault and all_converge:
            return seed
    raise AssertionError("no seed found — widen the search")


def canon(records: list[dict]) -> list[dict]:
    """Records without wall-clock noise, JSON-normalised (tuples ->
    lists), sorted by hash — the bit-identical comparison form."""
    stripped = [
        {k: v for k, v in record.items() if k != "elapsed_s"}
        for record in records
    ]
    return sorted(
        json.loads(json.dumps(stripped, sort_keys=True)),
        key=lambda record: record["hash"],
    )


def energy_spec() -> CampaignSpec:
    return CampaignSpec(
        name="acceptance-energy",
        kind="energy",
        axes={
            "emt": ("none", "dream", "secded"),
            "voltage": (0.9, 0.65, 0.5),
        },
        fixed={"workload": {
            "n_reads": 20_000, "n_writes": 20_000, "duration_s": 1e-3,
        }},
    )


def small_cohort() -> CohortSpec:
    return CohortSpec(
        name="acceptance-fleet",
        size=6,
        model=PatientModel(
            record_mix=(("100", 0.6), ("119", 0.4)),
            environment_mix=((1.0, 0.7), (1.5, 0.3)),
        ),
        duration_scale=0.01,
        voltages=(0.65, 0.8),
    )


class TestChaosBitIdentical:
    def test_campaign_under_chaos_matches_undisturbed_run(
        self, monkeypatch
    ):
        spec = energy_spec()
        plain = run_campaign(spec, n_workers=1)
        assert plain.n_failed == 0

        keys = [point.content_hash() for point in spec.expand()]
        seed = converging_seed(keys)
        monkeypatch.setenv(
            "REPRO_CHAOS", f"kill:{P},raise:{P},seed:{seed}"
        )
        chaotic = run_campaign(spec, n_workers=2)
        assert chaotic.n_failed == 0
        assert canon(chaotic.records) == canon(plain.records)

    def test_fleet_under_chaos_matches_undisturbed_run(self, monkeypatch):
        simulator = FleetSimulator(
            small_cohort(), n_probe=2, probe_duration_s=2.0
        )
        plain = simulator.run("hysteresis", n_workers=2)
        assert plain.failures() == []

        keys = [f"patient-{i}" for i in range(6)]
        seed = converging_seed(keys)
        monkeypatch.setenv(
            "REPRO_CHAOS", f"kill:{P},raise:{P},seed:{seed}"
        )
        chaotic = simulator.run("hysteresis", n_workers=2)
        assert chaotic.failures() == []
        assert json.loads(json.dumps(chaotic.rows)) == json.loads(
            json.dumps(plain.rows)
        )
        # Population statistics follow (wall-clock fields excluded).
        plain_summary = plain.summary()
        chaotic_summary = chaotic.summary()
        for volatile in ("elapsed_s", "patients_per_s"):
            plain_summary.pop(volatile, None)
            chaotic_summary.pop(volatile, None)
        assert chaotic_summary == plain_summary


class TestInterruptResume:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_interrupted_campaign_resumes_bit_identical(
        self, tmp_path, monkeypatch, n_workers
    ):
        spec = energy_spec()
        plain = run_campaign(spec, n_workers=1)

        store = ResultStore(tmp_path / "acceptance.jsonl")
        monkeypatch.setenv("REPRO_CHAOS", "interrupt:3")
        with pytest.raises(RunInterrupted, match="injected interrupt"):
            run_campaign(spec, store=store, n_workers=n_workers)

        # Completed work was persisted before the cancellation, and the
        # torn run left a loadable store behind.  Serially, each point
        # is persisted before the interrupt site is checked, so exactly
        # the first three made it.
        persisted = store.completed_hashes()
        assert len(persisted) >= 3
        if n_workers == 1:
            assert len(persisted) == 3

        monkeypatch.delenv("REPRO_CHAOS")
        resumed = run_campaign(spec, store=store, n_workers=1)
        assert resumed.n_cached >= 3
        assert resumed.n_cached + resumed.n_executed == len(plain.records)
        assert resumed.n_failed == 0
        assert canon(resumed.records) == canon(plain.records)

    def test_serial_fleet_interrupts_after_absorbing_rows(
        self, monkeypatch
    ):
        simulator = FleetSimulator(
            small_cohort(), n_probe=2, probe_duration_s=2.0
        )
        seen: list[dict] = []
        monkeypatch.setenv("REPRO_CHAOS", "interrupt:2")
        with pytest.raises(RunInterrupted, match="injected interrupt"):
            simulator.run(
                "hysteresis", n_workers=1,
                progress=lambda done, total, row: seen.append(row),
            )
        assert [row["patient"] for row in seen] == [0, 1]
