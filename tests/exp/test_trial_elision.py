"""Fault-free trial elision: fewer pipeline rows, the same floats.

``run_monte_carlo`` and ``BatchCalibrator.calibrate`` run the pipeline
only on trials whose EMT-restricted fault map holds a fault, plus one
fault-free trial whose SNR fills every other fault-free trial.  These
tests pin both halves: results stay bit-identical to the sequential
references, and the clean rows really are skipped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import make_app
from repro.emt import make_emt
from repro.energy.technology import TECH_32NM_LP
from repro.exp.common import (
    ExperimentConfig,
    load_corpus,
    run_monte_carlo,
    run_monte_carlo_sequential,
)
from repro.mem import sample_fault_map_batch
from repro.runtime.simulator import BatchCalibrator, _cached_app

EMT_NAMES = ("none", "dream", "secded")
GRID_SEED = 7


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(records=("100",), duration_s=2.0, n_runs=40, seed=3)


@pytest.fixture(scope="module")
def corpus(config):
    return load_corpus(config)


def _spy_rows(monkeypatch, app) -> list[int]:
    """Record the trial count of every ``run_batch`` call on ``app``."""
    rows: list[int] = []
    run_batch = app.run_batch

    def spy(samples, fabric):
        rows.append(fabric.sram.n_trials)
        return run_batch(samples, fabric)

    monkeypatch.setattr(app, "run_batch", spy)
    return rows


def _faulty_trials(fault_map, word_bits: int, n_words: int | None = None) -> int:
    """Trials holding a fault in the low ``word_bits`` of words
    ``[0, n_words)`` (every word when ``n_words`` is None)."""
    restricted = fault_map.restricted_to(word_bits)
    faults = (restricted.set_mask | restricted.clear_mask)[:, :n_words]
    return int(faults.any(axis=-1).sum())


@pytest.mark.parametrize("voltage", [0.75, 0.8])
def test_monte_carlo_equals_sequential(config, corpus, voltage):
    emts = {name: make_emt(name) for name in EMT_NAMES}
    ber = TECH_32NM_LP.ber(voltage)
    app = make_app("dwt")
    batched = run_monte_carlo(app, emts, ber, config, corpus, GRID_SEED)
    sequential = run_monte_carlo_sequential(
        app, emts, ber, config, corpus, GRID_SEED
    )
    assert batched.snr_mean_db == sequential.snr_mean_db
    assert batched.snr_std_db == sequential.snr_std_db


def test_monte_carlo_runs_faulty_rows_and_one_clean_row(
    config, corpus, monkeypatch
):
    emts = {name: make_emt(name) for name in EMT_NAMES}
    ber = TECH_32NM_LP.ber(0.75)
    shared = sample_fault_map_batch(
        config.n_runs, config.geometry.n_words, 22, ber,
        np.random.default_rng((config.seed, GRID_SEED)),
    )
    app = make_app("dwt")
    footprint = app.footprint_words(corpus["100"])
    assert footprint < config.geometry.n_words
    # The sampler draws faults only for the words dwt's buffers occupy,
    # so a trial whose faults all lie beyond them is fault-free too.
    faulty = [
        _faulty_trials(shared, emt.stored_bits, footprint)
        for emt in emts.values()
    ]
    # Mixed for every EMT (16-, 16- and 22-bit restrictions).
    assert all(0 < count < config.n_runs for count in faulty)
    assert all(
        count < _faulty_trials(shared, emt.stored_bits)
        for count, emt in zip(faulty, emts.values())
    )

    rows = _spy_rows(monkeypatch, app)
    run_monte_carlo(app, emts, ber, config, corpus, GRID_SEED)
    assert rows == [count + 1 for count in faulty]


def test_monte_carlo_without_clean_rows_runs_every_trial(
    config, corpus, monkeypatch
):
    app = make_app("dwt")
    rows = _spy_rows(monkeypatch, app)
    run_monte_carlo(
        app, {"secded": make_emt("secded")}, TECH_32NM_LP.ber(0.6),
        config, corpus, GRID_SEED,
    )
    assert rows == [config.n_runs]


def test_fault_free_point_runs_one_row(config, corpus, monkeypatch):
    app = make_app("dwt")
    rows = _spy_rows(monkeypatch, app)
    result = run_monte_carlo(
        app, {"dream": make_emt("dream")}, 0.0, config, corpus, GRID_SEED
    )
    assert rows == [1]
    assert result.snr_std_db["dream"] == 0.0


class TestCalibrator:
    # ~0.3 faults per probe over dwt's 5,040-word footprint (22 bits):
    # some probes hit, some are clean.
    ARGS = ("dwt", "100", 1.0, "secded", 3e-6)

    def test_equals_sequential_with_mixed_probes(self, monkeypatch):
        calibrator = BatchCalibrator(n_probe=8, probe_duration_s=2.0)
        rows = _spy_rows(monkeypatch, _cached_app("dwt"))
        batched = calibrator.calibrate(*self.ARGS)
        assert 1 < rows[0] < calibrator.n_probe
        reference = run_monte_carlo_sequential(
            *calibrator._protocol(*self.ARGS)
        )
        assert batched == (
            reference.snr_mean_db["secded"], reference.snr_std_db["secded"]
        )
