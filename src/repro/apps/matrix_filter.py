"""Matrix Filtering application (paper Section II-2).

The paper describes it as "a series of matrix multiplication operations
[A] x [B] = [C] repeated (iterations of the algorithm) until the quality
of the result meets the desired level" applying a transformation such as
low-pass filtering to biosignal samples.  We implement exactly that
structure:

* ``A`` is a ``K x K`` normalised Gaussian smoothing operator (a banded
  Toeplitz matrix — each output row is a windowed low-pass of the
  corresponding input rows), quantised to Q15;
* the sample vector is reshaped column-major into a ``K x M`` matrix
  ``B``;
* ``C = A @ B`` is computed in fixed point (exact 32-bit-style
  accumulation, one rounded shift back to Q15 per element, saturation)
  and re-stored; the product is iterated ``n_iterations`` times.

Both the coefficient matrix and the data matrices live in the faulty
memory — coefficients are data too, which is precisely why the paper
observes that "a single error affects many positions in the output" for
this application (every element of ``C`` depends on a full row of ``A``
and a full column of ``B``).
"""

from __future__ import annotations

import numpy as np

from ..errors import SignalError
from ..fixedpoint import Q15, rounded_shift_right, saturate
from ..mem.fabric import MemoryFabric
from .base import BiomedicalApp

__all__ = ["MatrixFilterApp", "gaussian_filter_matrix", "fixed_point_matmul"]


def gaussian_filter_matrix(size: int, sigma: float = 1.5) -> np.ndarray:
    """A row-normalised Gaussian smoothing matrix in Q15.

    Row ``i`` holds a Gaussian window centred on ``i``; rows are
    normalised to unit sum *before* quantisation so the operator has
    (approximately) unit DC gain and iterating it cannot overflow.
    """
    if size < 2:
        raise SignalError(f"matrix size must be >= 2, got {size}")
    if sigma <= 0:
        raise SignalError(f"sigma must be positive, got {sigma}")
    index = np.arange(size, dtype=np.float64)
    distance = index[:, None] - index[None, :]
    kernel = np.exp(-0.5 * (distance / sigma) ** 2)
    kernel /= kernel.sum(axis=1, keepdims=True)
    return Q15.from_float(kernel)


def fixed_point_matmul(a_q15: np.ndarray, b_q15: np.ndarray) -> np.ndarray:
    """``C = A @ B`` with Q15 operands: wide accumulate, round, saturate.

    The accumulation is exact (int64, the platform's 32-bit MAC never
    overflows for K <= 2**15 operands); each element is then shifted back
    to Q15 with rounding and saturated — one quantisation per output
    element, as a fixed-point MAC loop produces.

    Accepts stacked operands: ``(..., k, k) @ (..., k, m)`` multiplies
    every trial of a batch in one integer-exact ``matmul`` call.
    """
    a = np.asarray(a_q15, dtype=np.int64)
    b = np.asarray(b_q15, dtype=np.int64)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise SignalError(
            f"incompatible matmul shapes {a.shape} x {b.shape}"
        )
    wide = a @ b
    return saturate(rounded_shift_right(wide, Q15.frac_bits), Q15)


class MatrixFilterApp(BiomedicalApp):
    """Iterated fixed-point matrix filtering over the memory fabric.

    Args:
        block_size: ``K``, the filter-matrix dimension (and row count of
            the sample matrix).
        n_iterations: how many times ``C <- A @ C`` is applied.
        sigma: Gaussian width of the smoothing operator.

    The output is the final ``C`` flattened back to sample order.  Input
    lengths are processed in windows of ``block_size**2`` samples; a
    trailing partial window is zero-padded (and the padding trimmed from
    the output), as firmware with static buffers would do.
    """

    name = "matrix_filter"
    description = "iterated fixed-point matrix filtering"
    #: The window pipeline is reshapes plus stacked matmuls, so a
    #: batched fabric multiplies all trials in single ``matmul`` calls.
    supports_batch = True

    def __init__(
        self,
        block_size: int = 32,
        n_iterations: int = 3,
        sigma: float = 1.5,
    ) -> None:
        super().__init__()
        if block_size < 2:
            raise SignalError(f"block_size must be >= 2, got {block_size}")
        if n_iterations < 1:
            raise SignalError(
                f"n_iterations must be >= 1, got {n_iterations}"
            )
        self.block_size = block_size
        self.n_iterations = n_iterations
        self.sigma = sigma
        self._coefficients = gaussian_filter_matrix(block_size, sigma)

    def run(self, samples: np.ndarray, fabric: MemoryFabric) -> np.ndarray:
        arr = self._check_samples(samples)
        # Complete windows (of every stream) stack into batched matmuls
        # on a batched fabric; the zero-padded trailing window follows
        # on its own (its padding trimmed from the output as before).
        return self._run_in_windows(
            arr,
            self.block_size * self.block_size,
            fabric,
            lambda chunk: self._run_window(chunk, fabric),
            pad=True,
            trim=True,
        )

    @staticmethod
    def _as_colmajor(flat: np.ndarray, k: int) -> np.ndarray:
        """Per-trial ``reshape(k, k, order="F")`` for any leading shape.

        For a square matrix, Fortran-order reshape equals C-order
        reshape followed by a transpose of the trailing two axes — the
        form that also handles a stacked ``(n_trials, k*k)`` batch.
        """
        return flat.reshape(flat.shape[:-1] + (k, k)).swapaxes(-1, -2)

    @staticmethod
    def _colmajor_ravel(matrices: np.ndarray) -> np.ndarray:
        """Per-trial ``ravel(order="F")`` for any leading shape."""
        return np.ascontiguousarray(matrices.swapaxes(-1, -2)).reshape(
            matrices.shape[:-2] + (-1,)
        )

    def _run_window(
        self, chunk: np.ndarray, fabric: MemoryFabric
    ) -> np.ndarray:
        k = self.block_size
        # The coefficient matrix is data in the faulty memory too.  Its
        # roundtrip is deterministic (same values, addresses and masks
        # every window), so one read serves a whole window stack.
        coeffs = fabric.roundtrip("matfilt.A", self._coefficients.ravel())
        a = coeffs.reshape(coeffs.shape[:-1] + (k, k))
        b = self._as_colmajor(fabric.roundtrip("matfilt.B", chunk), k)
        if b.ndim == a.ndim + 1:
            # Window-stacked b: broadcast A across the window axis.
            a = a[..., None, :, :]
        for iteration in range(self.n_iterations):
            c = fixed_point_matmul(a, b)
            b = self._as_colmajor(
                fabric.roundtrip("matfilt.C", self._colmajor_ravel(c)), k
            )
        return self._colmajor_ravel(b)
