"""Tests for the morphological-filtering application."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps import MorphologicalFilterApp
from repro.apps.base import clean_fabric
from repro.apps.morphology import (
    _sliding_extreme,
    closing,
    dilate,
    erode,
    opening,
)
from repro.errors import SignalError
from repro.signals.dataset import load_record


def strided_sliding_extreme(
    values: np.ndarray, length: int, take_max: bool
) -> np.ndarray:
    """The O(n * length) strided running min/max, kept as the reference."""
    arr = np.asarray(values, dtype=np.int64)
    half = length // 2
    padded = np.concatenate(
        [
            np.repeat(arr[..., :1], half, axis=-1),
            arr,
            np.repeat(arr[..., -1:], half, axis=-1),
        ],
        axis=-1,
    )
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, length, axis=-1
    )
    return windows.max(axis=-1) if take_max else windows.min(axis=-1)


@st.composite
def signals(draw) -> np.ndarray:
    """1-D or trial-batched ``(n_trials, n)`` int64 signals."""
    n = draw(st.integers(1, 300))
    n_trials = draw(st.integers(0, 4))
    shape = (n_trials, n) if n_trials else (n,)
    return draw(
        hnp.arrays(
            np.int64, shape, elements=st.integers(-(2**62), 2**62)
        )
    )


#: A batched signal shorter than every baseline element.
SHORT = np.array([[4, -9, 2], [0, 7, -1]], dtype=np.int64)


class TestSlidingExtremeMatchesStridedReference:
    @settings(max_examples=300, deadline=None)
    @given(
        values=signals(),
        length=st.integers(0, 64).map(lambda k: 2 * k + 1),
        take_max=st.booleans(),
    )
    @example(values=SHORT, length=73, take_max=False)
    @example(values=SHORT, length=129, take_max=True)
    def test_property(self, values, length, take_max):
        got = _sliding_extreme(values, length, take_max)
        expected = strided_sliding_extreme(values, length, take_max)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


class TestOperators:
    def test_erosion_is_running_min(self):
        x = np.array([5, 1, 7, 3, 9], dtype=np.int64)
        out = erode(x, 3)
        assert out.tolist() == [1, 1, 1, 3, 3]

    def test_dilation_is_running_max(self):
        x = np.array([5, 1, 7, 3, 9], dtype=np.int64)
        out = dilate(x, 3)
        assert out.tolist() == [5, 7, 7, 9, 9]

    def test_duality(self, rng):
        """Erosion of -x equals -dilation of x."""
        x = rng.integers(-1000, 1000, size=200)
        assert np.array_equal(erode(-x, 5), -dilate(x, 5))

    def test_opening_removes_positive_spike(self):
        x = np.zeros(64, dtype=np.int64)
        x[30] = 1000
        assert np.all(opening(x, 5) == 0)

    def test_closing_removes_negative_pit(self):
        x = np.zeros(64, dtype=np.int64)
        x[30] = -1000
        assert np.all(closing(x, 5) == 0)

    def test_opening_anti_extensive(self, rng):
        x = rng.integers(-500, 500, size=300)
        assert np.all(opening(x, 7) <= x)

    def test_closing_extensive(self, rng):
        x = rng.integers(-500, 500, size=300)
        assert np.all(closing(x, 7) >= x)

    def test_idempotence(self, rng):
        x = rng.integers(-500, 500, size=300)
        once = opening(x, 9)
        assert np.array_equal(opening(once, 9), once)
        once = closing(x, 9)
        assert np.array_equal(closing(once, 9), once)

    def test_element_validation(self):
        with pytest.raises(SignalError):
            erode(np.zeros(8, dtype=np.int64), 0)
        with pytest.raises(SignalError):
            dilate(np.zeros(8, dtype=np.int64), 4)  # even length


class TestMorphologicalFilterApp:
    def test_output_length(self, record_100):
        app = MorphologicalFilterApp()
        out = app.run(record_100.samples, clean_fabric())
        assert out.shape == record_100.samples.shape

    def test_removes_baseline_wander(self):
        """The app's purpose: drift out, QRS preserved."""
        record = load_record("101", duration_s=10.0)  # wander-heavy
        app = MorphologicalFilterApp()
        out = app.run(record.samples, clean_fabric())
        # Low-frequency content (below 0.6 Hz) must shrink substantially.
        def low_freq_power(x):
            spectrum = np.abs(np.fft.rfft(x.astype(np.float64)))
            freqs = np.fft.rfftfreq(len(x), 1 / 360.0)
            return float((spectrum[(freqs > 0) & (freqs < 0.6)] ** 2).sum())

        assert low_freq_power(out) < 0.35 * low_freq_power(record.samples)

    def test_preserves_qrs_amplitude(self, record_100):
        app = MorphologicalFilterApp()
        out = app.run(record_100.samples, clean_fabric())
        r = int(record_100.r_samples[2])
        window = slice(max(0, r - 10), r + 10)
        original = float(np.abs(record_100.samples[window]).max())
        filtered = float(np.abs(out[window]).max())
        assert filtered > 0.5 * original

    def test_pure_integer_pipeline_is_exact(self, record_100):
        """min/max arithmetic introduces no rounding: bit-exact reruns."""
        app = MorphologicalFilterApp()
        a = app.run(record_100.samples, clean_fabric())
        b = app.run(record_100.samples, clean_fabric())
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(SignalError):
            MorphologicalFilterApp(fs_hz=0.0)
        with pytest.raises(SignalError):
            MorphologicalFilterApp(noise_element=4)
        with pytest.raises(SignalError):
            MorphologicalFilterApp(window=64)
