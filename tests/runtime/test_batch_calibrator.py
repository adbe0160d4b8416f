"""BatchCalibrator: bit-identical models, unchanged cache keys.

A calibration is one call of the shared Section V driver,
``run_monte_carlo``; these tests pin the two properties that protect
every previously-cached calibration:

* the (mean, std) quality model is *exactly* what the run-by-run
  reference (``run_monte_carlo_sequential``, replaying the calibrator's
  own arguments) computes from the same seeds, and
* the shared disk cache's content-hash keys never see the batching —
  the payload schema (and therefore every digest) is unchanged.
"""

from __future__ import annotations

import os

import pytest

from repro.cache import shared_cache
from repro.campaign.spec import content_hash
from repro.errors import MissionError
from repro.exp.common import run_monte_carlo_sequential
from repro.runtime.simulator import BatchCalibrator, _calibrated_quality
from repro.signals.metrics import SNR_CAP_DB


def sequential(calibrator, app_name, record, noise_gain, emt_name, ber):
    """The run-by-run reference over the calibrator's own arguments."""
    result = run_monte_carlo_sequential(
        *calibrator._protocol(app_name, record, noise_gain, emt_name, ber)
    )
    return result.snr_mean_db[emt_name], result.snr_std_db[emt_name]


class TestBitIdentical:
    @pytest.mark.parametrize("emt_name", ["none", "dream", "secded", "dream_secded"])
    @pytest.mark.parametrize("ber", [0.0, 1e-4, 3e-3])
    def test_batched_equals_sequential(self, emt_name, ber):
        calibrator = BatchCalibrator(n_probe=3, probe_duration_s=2.0)
        batched = calibrator.calibrate("dwt", "100", 1.0, emt_name, ber)
        assert batched == sequential(
            calibrator, "dwt", "100", 1.0, emt_name, ber
        )

    def test_single_probe_batch(self):
        calibrator = BatchCalibrator(n_probe=1, probe_duration_s=2.0)
        assert calibrator.calibrate(
            "dwt", "100", 1.0, "dream", 2e-3
        ) == sequential(calibrator, "dwt", "100", 1.0, "dream", 2e-3)

    def test_fallback_app_batches_identically(self):
        """Delineation has no vectorised batch path; the per-trial
        fallback must still match the sequential loop exactly."""
        calibrator = BatchCalibrator(n_probe=2, probe_duration_s=2.0)
        assert calibrator.calibrate(
            "delineation", "100", 1.0, "dream", 2e-3
        ) == sequential(calibrator, "delineation", "100", 1.0, "dream", 2e-3)

    def test_calibrated_quality_delegates_to_batched(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        calibrator = BatchCalibrator(
            n_probe=2, probe_duration_s=2.0, snr_cap_db=SNR_CAP_DB
        )
        assert _calibrated_quality(
            "dwt", "100", 1.0, "none", 1e-3, 2, 2.0, SNR_CAP_DB
        ) == calibrator.calibrate("dwt", "100", 1.0, "none", 1e-3)
        assert shared_cache().stats.computed == 1

    def test_rejects_bad_fidelity_knobs(self):
        with pytest.raises(MissionError):
            BatchCalibrator(n_probe=0)
        with pytest.raises(MissionError):
            BatchCalibrator(probe_duration_s=0.0)


class TestCacheKeysUnchanged:
    def test_disk_entry_uses_the_historical_payload_schema(
        self, tmp_path, monkeypatch
    ):
        """The batched calibrator writes cache entries under the exact
        digest the sequential implementation's payload produced."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)

        args = dict(
            app_name="dwt",
            record="100",
            noise_gain=1.0,
            emt_name="dream",
            ber=2e-3,
            n_probe=2,
            probe_duration_s=2.0,
            snr_cap_db=SNR_CAP_DB,
        )
        mean, std = _calibrated_quality(*args.values())

        # The historical (pre-batching) cache payload, verbatim.
        payload = {
            "kind": "mission-quality",
            "v": 1,
            "app": args["app_name"],
            "record": args["record"],
            "noise_gain": args["noise_gain"],
            "emt": args["emt_name"],
            "ber": args["ber"],
            "n_probe": args["n_probe"],
            "probe_duration_s": args["probe_duration_s"],
            "snr_cap_db": args["snr_cap_db"],
        }
        digest = content_hash(payload)
        entry = tmp_path / f"{digest}.json"
        assert entry.exists(), sorted(os.listdir(tmp_path))

        # And the cached value is the batched == sequential model.
        calibrator = BatchCalibrator(n_probe=2, probe_duration_s=2.0)
        assert (mean, std) == sequential(
            calibrator, "dwt", "100", 1.0, "dream", 2e-3
        )

    def test_model_values_are_plain_floats(self):
        calibrator = BatchCalibrator(n_probe=2, probe_duration_s=2.0)
        mean, std = calibrator.calibrate("dwt", "100", 1.0, "none", 0.0)
        assert isinstance(mean, float) and isinstance(std, float)
        assert (mean, std) == (SNR_CAP_DB, 0.0)

    def test_mission_simulator_results_unchanged_by_batching(
        self, tmp_path, monkeypatch
    ):
        """End to end: a short mission's result equals a run whose
        calibrations were produced by the sequential reference."""
        from repro.runtime import MissionSimulator, make_policy
        from repro.runtime import simulator
        from repro.runtime.scenarios import scenario_spec

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sim = MissionSimulator(
            scenario_spec("overnight").scaled(0.01),
            n_probe=2,
            probe_duration_s=2.0,
        )
        result = sim.run(make_policy("hysteresis"))

        references = []

        def reference(
            app_name, record, noise_gain, emt_name, ber, n_probe,
            probe_duration_s, snr_cap_db,
        ):
            references.append(emt_name)
            calibrator = BatchCalibrator(
                n_probe=n_probe, probe_duration_s=probe_duration_s,
                snr_cap_db=snr_cap_db,
            )
            return sequential(
                calibrator, app_name, record, noise_gain, emt_name, ber
            )

        monkeypatch.setattr(simulator, "_calibrated_quality", reference)
        assert sim.run(make_policy("hysteresis")) == result
        assert references


class TestOneMemo:
    def test_shared_cache_counts_every_lookup(self, tmp_path, monkeypatch):
        """The shared cache is the one in-process memo: a mission run
        twice in one process sends every calibration and pricing lookup
        to it, and the repeats are its memory hits."""
        from repro.runtime import MissionSimulator, make_policy
        from repro.runtime import simulator
        from repro.runtime.scenarios import scenario_spec

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
        calls = []
        for name in ("_calibrated_quality", "_window_energy_pj"):
            original = getattr(simulator, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(simulator, name, counted)

        spec = scenario_spec("overnight").scaled(0.01)
        results = [
            MissionSimulator(spec, n_probe=2, probe_duration_s=2.0)
            .run(make_policy("hysteresis"))
            .to_dict()
            for _ in range(2)
        ]
        assert results[0] == results[1]
        stats = shared_cache().stats
        assert {"_calibrated_quality", "_window_energy_pj"} <= set(calls)
        assert stats.lookups == len(calls)
        assert stats.memory_hits == len(calls) - stats.computed > 0
