"""The footprint contract that bounded fault sampling rests on.

Monte-Carlo fault maps are sampled only for the words an application's
buffers occupy, as read off its clean reference run
(:meth:`BiomedicalApp.footprint_words`).  That is sound only if every
faulty, batched run of a ``supports_batch`` application allocates
exactly those words, whatever the EMT, the record length or the faults.
The fabric raises on a buffer past the bound; these tests pin the
equality itself and the drivers that rely on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import EXTENSION_APPS, PAPER_APPS, make_app
from repro.emt import PAPER_EMTS, make_emt
from repro.exp import common
from repro.exp.common import run_monte_carlo_sequential
from repro.mem import MemoryFabric, sample_fault_map_batch
from repro.mem.layout import PAPER_GEOMETRY
from repro.runtime.simulator import BatchCalibrator
from repro.signals.dataset import load_record

BATCH_APPS = sorted(
    name
    for name, cls in {**PAPER_APPS, **EXTENSION_APPS}.items()
    if cls.supports_batch
)


def _signals() -> list[np.ndarray]:
    signals = [
        load_record("100", duration_s=duration).samples
        for duration in (1.0, 4.0, 8.0, 10.0)
    ]
    # An odd count leaves a partial trailing window for every app.
    signals.append(signals[-1][:1441])
    return signals


SIGNALS = _signals()


def test_batch_apps_are_covered():
    assert {"dwt", "morphology", "matrix_filter", "compressed_sensing"} <= set(
        BATCH_APPS
    )


@pytest.mark.parametrize("emt_name", sorted(PAPER_EMTS))
@pytest.mark.parametrize("app_name", BATCH_APPS)
def test_batched_run_allocates_the_footprint(app_name, emt_name):
    app = make_app(app_name)
    emt = make_emt(emt_name)
    for samples in SIGNALS:
        footprint = app.footprint_words(samples)
        assert 0 < footprint < PAPER_GEOMETRY.n_words
        fault_map = sample_fault_map_batch(
            3, PAPER_GEOMETRY.n_words, emt.stored_bits, 1e-3,
            np.random.default_rng(samples.size), live_words=footprint,
        )
        assert fault_map.live_words == footprint and fault_map.n_faults
        fabric = MemoryFabric(
            emt, fault_map=fault_map, collect_decode_stats=False
        )
        app.run_batch(samples, fabric)
        assert fabric.words_allocated == footprint, samples.size


def test_footprint_rides_the_reference_run(monkeypatch):
    app = make_app("dwt")
    samples = SIGNALS[1]
    runs = []
    run = app.run

    def spy(arr, fabric):
        runs.append(fabric.n_trials)
        return run(arr, fabric)

    monkeypatch.setattr(app, "run", spy)
    reference = app.reference_output(samples)
    assert app.footprint_words(samples) == 7168
    assert np.array_equal(app.reference_output(samples), reference)
    assert runs == [1]


def _spy_bounds(monkeypatch) -> list:
    """Record the ``live_words`` of every map the calibrator samples."""
    bounds = []
    sample = common.sample_fault_map_batch

    def spy(*args, **kwargs):
        fault_map = sample(*args, **kwargs)
        bounds.append(fault_map.live_words)
        return fault_map

    monkeypatch.setattr(common, "sample_fault_map_batch", spy)
    return bounds


class TestBoundedCalibration:
    # ~3.5 faults per 4 s morphology probe footprint (7,200 x 16 bits),
    # unprotected: the probes' SNRs spread (mean ~70 dB, std ~33 dB).
    ARGS = ("morphology", "100", 1.0, "none", 3e-5)

    def test_probe_map_is_bounded_and_matches_sequential(self, monkeypatch):
        bounds = _spy_bounds(monkeypatch)
        calibrator = BatchCalibrator(n_probe=6, probe_duration_s=4.0)
        batched = calibrator.calibrate(*self.ARGS)
        assert bounds == [7200]
        assert batched[1] > 0
        reference = run_monte_carlo_sequential(
            *calibrator._protocol(*self.ARGS)
        )
        assert batched == (
            reference.snr_mean_db["none"], reference.snr_std_db["none"]
        )

    def test_fallback_app_samples_the_whole_array(self, monkeypatch):
        bounds = _spy_bounds(monkeypatch)
        BatchCalibrator(n_probe=2, probe_duration_s=2.0).calibrate(
            "delineation", "100", 1.0, "dream", 1e-4
        )
        assert bounds == [None]
