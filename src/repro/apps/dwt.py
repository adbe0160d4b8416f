"""Discrete Wavelet Transform application (paper Section II-1).

The DWT used by commercial multi-lead WBSN delineators ([8] in the paper)
is the *à-trous* (undecimated) quadratic-spline filterbank of Mallat, the
standard choice for ECG because its detail coefficients are proportional
to the signal's smoothed derivative — QRS complexes appear as
modulus-maxima pairs.  Per scale ``j``:

* low-pass:  ``h = [1, 3, 3, 1] / 8`` (unit DC gain, exact in fixed point
  as multiply-accumulate then a rounded shift by 3),
* high-pass: ``g = [2, -2]`` (first derivative, gain 2),

with ``2**(j-1) - 1`` zeros inserted between taps at scale ``j`` and
symmetric boundary extension.  The implementation is integer-exact
(shift-add arithmetic with saturation), mirroring the fixed-point
firmware of the target platform.

Memory behaviour: the input vector, every scale's approximation (ping-pong
buffers, as firmware would allocate statically) and every scale's detail
output live in the faulty data memory.  The app's output is the
concatenation ``[d1, d2, ..., dJ, aJ]``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import SignalError
from ..fixedpoint import Q15, rounded_shift_right, saturate
from ..mem.fabric import MemoryFabric
from .base import BiomedicalApp

__all__ = ["DwtApp", "atrous_lowpass", "atrous_highpass", "atrous_decompose"]


@lru_cache(maxsize=256)
def _reflected_index(n: int, offset: int) -> np.ndarray:
    """The reflected gather index for one (length, offset) pair, cached.

    The same handful of (window length, tap offset) pairs recurs for
    every window, scale, record and Monte-Carlo trial, so the index
    arithmetic is hoisted out of the hot loop.
    """
    index = np.arange(n) + offset
    # Reflect indices into [0, n) (symmetric, repeating edge style).
    index = np.abs(index)
    over = index >= n
    index[over] = 2 * (n - 1) - index[over]
    index.setflags(write=False)
    return index


def _shifted(values: np.ndarray, offset: int) -> np.ndarray:
    """``values`` shifted by ``offset`` with symmetric boundary extension.

    Shape-agnostic: the sample index is the last axis, so a trial-batched
    ``(n_trials, n)`` array shifts every trial at once.  The interior of
    the result is a plain contiguous copy; only the ``|offset|`` edge
    elements need the reflected gather — a fraction of the cost of
    gathering the whole axis (offsets are at most ``2**(scales-1)``).
    """
    n = values.shape[-1]
    if offset == 0:
        return values.copy()
    out = np.empty_like(values)
    index = _reflected_index(n, offset)
    if offset > 0:
        interior = n - min(offset, n)
        out[..., :interior] = values[..., offset : offset + interior]
        out[..., interior:] = values[..., index[interior:]]
    else:
        edge = min(-offset, n)
        out[..., edge:] = values[..., : n - edge]
        out[..., :edge] = values[..., index[:edge]]
    return out


def atrous_lowpass(values: np.ndarray, scale: int) -> np.ndarray:
    """One à-trous low-pass step ``a_j = (a_{j-1} * h_j)`` in fixed point.

    Args:
        values: approximation at the previous scale (signed raw ints).
        scale: target scale ``j >= 1``; taps are spaced ``2**(j-1)``.

    Returns:
        Saturated 16-bit approximation at scale ``j``.
    """
    if scale < 1:
        raise SignalError(f"scale must be >= 1, got {scale}")
    arr = np.asarray(values, dtype=np.int64)
    spacing = 1 << (scale - 1)
    # Zero-phase placement of [1, 3, 3, 1]: taps at -2s, -s, 0, +s
    # (matching the causal filter after group-delay compensation).
    # Factored as (outer taps) + 3 * (inner taps) — integer arithmetic,
    # so the regrouping is exact while saving one full-array multiply.
    outer = _shifted(arr, -2 * spacing) + _shifted(arr, spacing)
    inner = _shifted(arr, -spacing) + arr
    acc = outer + 3 * inner
    return saturate(rounded_shift_right(acc, 3), Q15)


def atrous_highpass(values: np.ndarray, scale: int) -> np.ndarray:
    """One à-trous high-pass step ``d_j = (a_{j-1} * g_j)`` in fixed point.

    ``g = [2, -2]`` computes a scaled first difference; the result
    saturates at the 16-bit range like the target's DSP datapath.
    """
    if scale < 1:
        raise SignalError(f"scale must be >= 1, got {scale}")
    arr = np.asarray(values, dtype=np.int64)
    spacing = 1 << (scale - 1)
    diff = 2 * (_shifted(arr, -spacing) - arr)
    return saturate(diff, Q15)


def atrous_decompose(
    samples: np.ndarray, n_scales: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Pure (memory-less) à-trous decomposition used by the delineator.

    Returns:
        ``(details, approximation)`` with ``details[j-1]`` the scale-``j``
        detail coefficients.
    """
    if n_scales < 1:
        raise SignalError(f"n_scales must be >= 1, got {n_scales}")
    approx = np.asarray(samples, dtype=np.int64)
    details = []
    for scale in range(1, n_scales + 1):
        details.append(atrous_highpass(approx, scale))
        approx = atrous_lowpass(approx, scale)
    return details, approx


class DwtApp(BiomedicalApp):
    """Multi-scale à-trous DWT over the faulty memory fabric.

    Args:
        n_scales: number of dyadic scales (the WBSN delineator uses 4).
        window: processing window in samples; the record is handled in
            windows of this size with statically allocated buffers, as
            the 32 kB platform requires.

    Example:
        >>> import numpy as np
        >>> from repro.apps import DwtApp
        >>> from repro.apps.base import clean_fabric
        >>> app = DwtApp()
        >>> out = app.run(np.zeros(64, dtype=np.int64), clean_fabric())
        >>> out.shape
        (320,)
    """

    name = "dwt"
    description = "multi-scale a-trous quadratic-spline DWT"
    #: Every step treats the sample index as the last axis, so a batched
    #: fabric streams all trials through one numpy pass per stage.
    supports_batch = True

    def __init__(self, n_scales: int = 4, window: int = 1024) -> None:
        super().__init__()
        if n_scales < 1:
            raise SignalError(f"n_scales must be >= 1, got {n_scales}")
        if window < 1 << n_scales:
            raise SignalError(
                f"window {window} too small for {n_scales} scales"
            )
        self.n_scales = n_scales
        self.window = window

    def run(self, samples: np.ndarray, fabric: MemoryFabric) -> np.ndarray:
        arr = self._check_samples(samples)
        # On a batched fabric, all complete windows (of every stream)
        # ride the pipeline as one stacked roundtrip per buffer; a
        # trailing partial window follows as a stack of one.  Identical
        # values — windows are independent through the fabric.
        return self._run_in_windows(
            arr,
            self.window,
            fabric,
            lambda chunk: self._run_window(chunk, fabric),
        )

    def _run_window(
        self, chunk: np.ndarray, fabric: MemoryFabric
    ) -> np.ndarray:
        # Input buffer lives in the faulty memory.  On a batched fabric
        # the roundtrip returns (n_trials, window) and every subsequent
        # stage broadcasts across the trial axis unchanged.
        approx = fabric.roundtrip("dwt.input", chunk)
        details = []
        for scale in range(1, self.n_scales + 1):
            detail = atrous_highpass(approx, scale)
            approx = atrous_lowpass(approx, scale)
            # Detail goes to its output region; approximation ping-pongs
            # between two statically allocated scratch buffers.
            details.append(fabric.roundtrip(f"dwt.detail{scale}", detail))
            approx = fabric.roundtrip(f"dwt.approx{scale % 2}", approx)
        return np.concatenate(details + [approx], axis=-1)
