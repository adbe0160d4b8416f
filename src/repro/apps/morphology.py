"""Morphological Filtering application (paper Section II-4).

Cleans raw ECG — baseline drift from respiration/electrode motion and
high-frequency noise from muscle activity or mains coupling — using the
classic two-stage morphological operator chain (Sun, Chan & Krishnan
style), built purely from erosions and dilations with flat structuring
elements:

1. **Baseline correction**: the baseline is estimated by an opening (to
   suppress peaks) followed by a closing (to suppress pits) with
   structuring elements longer than the widest wave of interest, and is
   subtracted from the signal.
2. **Noise suppression**: the average of an opening-closing and a
   closing-opening with a short element smooths residual spikes.

Erosion and dilation are running min/max — exact integer operations, so
the fixed-point implementation introduces no arithmetic error at all;
whatever degradation the experiments observe is purely memory corruption.
They run in O(n) whatever the element length, by the van Herk /
Gil-Werman method: per-block prefix and suffix extrema, two of which
cover any window.

Memory behaviour: the input, the baseline estimate, the detrended signal
and the final output all round-trip through the faulty fabric.
"""

from __future__ import annotations

import numpy as np

from ..errors import SignalError
from ..mem.fabric import MemoryFabric
from .base import BiomedicalApp

__all__ = ["MorphologicalFilterApp", "erode", "dilate", "opening", "closing"]


def _sliding_extreme(values: np.ndarray, length: int, take_max: bool) -> np.ndarray:
    """Running min/max with a centred flat structuring element.

    The input is edge-padded so the output has the same length (flat
    extension, the standard choice for ECG morphology).  Shape-agnostic:
    the sample index is the last axis, so a trial-batched
    ``(n_trials, n)`` array is filtered in one pass.

    van Herk / Gil-Werman: the padded signal is cut into blocks of
    ``length`` samples, and a running extreme from each block's start
    (prefix) and towards its end (suffix) is accumulated.  A window of
    ``length`` samples spans at most two blocks, so its extreme is one
    ``op`` of a suffix and a prefix value: three comparisons per sample
    instead of ``length``.  Integer min/max is exact, so the result
    equals the direct sliding-window reduction bit for bit.
    """
    if length < 1:
        raise SignalError(f"structuring element must be >= 1, got {length}")
    if length % 2 == 0:
        raise SignalError(
            f"structuring element must have odd length, got {length}"
        )
    arr = np.asarray(values, dtype=np.int64)
    half = length // 2
    n = arr.shape[-1]
    # Edge padding, then a tail of edge values up to a whole number of
    # length-sample blocks (the tail never enters a kept window).
    n_blocks = -(-(n + 2 * half) // length)
    padded = np.concatenate(
        [
            np.repeat(arr[..., :1], half, axis=-1),
            arr,
            np.repeat(arr[..., -1:], n_blocks * length - n - half, axis=-1),
        ],
        axis=-1,
    )
    op = np.maximum if take_max else np.minimum
    blocks = padded.reshape(*arr.shape[:-1], n_blocks, length)
    # Window [i, i + length) is op(suffix[i], prefix[i + length - 1]).
    prefix = op.accumulate(blocks, axis=-1).reshape(padded.shape)
    suffix = np.flip(
        op.accumulate(np.flip(blocks, axis=-1), axis=-1), axis=-1
    ).reshape(padded.shape)
    return op(suffix[..., :n], prefix[..., length - 1 : length - 1 + n])


def erode(values: np.ndarray, length: int) -> np.ndarray:
    """Flat erosion (running minimum) with a centred element."""
    return _sliding_extreme(values, length, take_max=False)


def dilate(values: np.ndarray, length: int) -> np.ndarray:
    """Flat dilation (running maximum) with a centred element."""
    return _sliding_extreme(values, length, take_max=True)


def opening(values: np.ndarray, length: int) -> np.ndarray:
    """Erosion followed by dilation: removes positive peaks."""
    return dilate(erode(values, length), length)


def closing(values: np.ndarray, length: int) -> np.ndarray:
    """Dilation followed by erosion: removes negative pits."""
    return erode(dilate(values, length), length)


class MorphologicalFilterApp(BiomedicalApp):
    """Baseline removal plus noise suppression over the memory fabric.

    Args:
        fs_hz: sampling rate, used to size the structuring elements.
        baseline_open_s: opening element length in seconds (must exceed
            the QRS width so complexes are not flattened into the
            baseline estimate).
        baseline_close_s: closing element length in seconds (spans the
            full P-QRS-T so the estimate tracks only the drift).
        noise_element: short element length in samples for the final
            smoothing stage.
        window: processing window in samples (static buffers).
    """

    name = "morphology"
    description = "morphological baseline removal and noise suppression"
    #: Erosion/dilation are last-axis sliding extrema and the arithmetic
    #: is elementwise, so a batched fabric vectorises across trials.
    supports_batch = True

    def __init__(
        self,
        fs_hz: float = 360.0,
        baseline_open_s: float = 0.2,
        baseline_close_s: float = 0.3,
        noise_element: int = 5,
        window: int = 2048,
    ) -> None:
        super().__init__()
        if fs_hz <= 0:
            raise SignalError(f"fs_hz must be positive, got {fs_hz}")

        def odd_samples(seconds: float) -> int:
            n = max(3, int(round(seconds * fs_hz)))
            return n if n % 2 else n + 1

        self.open_len = odd_samples(baseline_open_s)
        self.close_len = odd_samples(baseline_close_s)
        if noise_element < 3 or noise_element % 2 == 0:
            raise SignalError(
                f"noise_element must be an odd value >= 3, got {noise_element}"
            )
        self.noise_len = noise_element
        if window < 2 * self.close_len:
            raise SignalError(
                f"window {window} too small for a {self.close_len}-sample "
                f"closing element"
            )
        self.window = window

    def run(self, samples: np.ndarray, fabric: MemoryFabric) -> np.ndarray:
        arr = self._check_samples(samples)
        # Complete windows (of every stream) stack into one batched
        # roundtrip per buffer on a batched fabric; the trailing partial
        # window follows on its own (and every window on a classic
        # fabric takes the historical loop).
        return self._run_in_windows(
            arr,
            self.window,
            fabric,
            lambda chunk: self._run_window(chunk, fabric),
        )

    def _run_window(
        self, chunk: np.ndarray, fabric: MemoryFabric
    ) -> np.ndarray:
        signal = fabric.roundtrip("morpho.input", chunk)

        # Stage 1: baseline estimation and removal.
        opened = fabric.roundtrip(
            "morpho.opened", opening(signal, self.open_len)
        )
        baseline = fabric.roundtrip(
            "morpho.baseline", closing(opened, self.close_len)
        )
        detrended = fabric.roundtrip("morpho.detrended", signal - baseline)

        # Stage 2: noise suppression (average of oc and co).
        oc = closing(opening(detrended, self.noise_len), self.noise_len)
        co = opening(closing(detrended, self.noise_len), self.noise_len)
        # Arithmetic mean with floor division matches the >> 1 of firmware.
        cleaned = (oc + co) >> 1
        return fabric.roundtrip("morpho.output", cleaned)
