"""Shared fixtures for the test suite.

Records and application outputs are expensive enough to matter at suite
scale, so the common ones are session-scoped.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.mem.layout import MemoryGeometry
from repro.signals.dataset import load_record


@pytest.fixture(scope="session", autouse=True)
def _isolated_calibration_cache(tmp_path_factory):
    """Point the shared calibration cache at a session-scoped tmp dir.

    Keeps the suite hermetic: runs never read calibrations persisted by
    earlier runs (or leave any behind in the working tree), while tests
    still exercise the real disk layer — and worker processes, which
    inherit the environment, share the same root.  Tests that need a
    private cache root override ``REPRO_CACHE_DIR`` themselves.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("calibration-cache")
    )
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def record_100():
    """Five seconds of the normal-sinus-rhythm record."""
    return load_record("100", duration_s=5.0)


@pytest.fixture(scope="session")
def record_106():
    """Five seconds of the PVC-rich record."""
    return load_record("106", duration_s=5.0)


@pytest.fixture(scope="session")
def short_samples(record_100):
    """A 1024-sample 16-bit ECG slice, the apps' native window."""
    return record_100.samples[:1024]


@pytest.fixture()
def rng():
    """A fixed-seed generator, fresh per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def small_geometry():
    """A tiny banked memory for fast exhaustive checks."""
    return MemoryGeometry(n_words=256, word_bits=16, n_banks=4)


@pytest.fixture(scope="session")
def run_figure():
    """Run a figure's params through :class:`repro.api.Session`.

    Returns ``run(params, **session_kwargs) -> result`` — the
    ``Fig2Result``/``Fig4Result``/``EnergyAnalysis``/``TradeoffResult``
    a ``kind = "figure"`` experiment reduces to.
    """
    from repro.api import Session
    from repro.api.schema import Experiment

    def run(params, **session_kwargs):
        experiment = Experiment(name=params.KIND, kind="figure", params=params)
        return Session(**session_kwargs).run(experiment).result()

    return run
