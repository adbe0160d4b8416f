"""Compressed Sensing application (paper Section II-3).

Implements the WBSN compressed-sensing scheme of Mamaghanian et al.
([10], [11] in the paper): on the sensor node, a block of ``N`` ECG
samples is projected through a **sparse binary sensing matrix** (``d``
ones per column — multiplier-free, just additions) into ``M = N/2``
measurements, a 50 % lossy compression.  The measurement vector is what
the node stores and transmits; on the gateway, the signal is recovered by
sparse approximation in an orthonormal Daubechies wavelet basis via
Orthogonal Matching Pursuit (OMP).

Quality semantics (paper Section VI-A): CS "deteriorates the data even in
the case of an error-free execution", so its Fig 4 ceiling is the
*reconstruction* SNR (~85 dB in the paper's setup), not the 16-bit bound.
Accordingly :meth:`CompressedSensingApp.output_snr` reconstructs the
signal from the (possibly corrupted) measurements and scores it against
the original input samples.

On-node data in the faulty memory: the input block and the measurement
(output) buffer.  The sensing matrix is regenerated on the fly from a
seed (an LFSR in hardware) and therefore not exposed to memory faults.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SignalError
from ..fixedpoint import Q15, saturate
from ..mem.fabric import MemoryFabric
from ..signals.metrics import SNR_CAP_DB, snr_db
from .base import BiomedicalApp

__all__ = [
    "CompressedSensingApp",
    "sparse_binary_matrix",
    "daubechies4_basis",
    "omp_reconstruct",
]


def sparse_binary_matrix(
    n_measurements: int,
    n_samples: int,
    ones_per_column: int,
    seed: int,
) -> np.ndarray:
    """The sparse binary sensing matrix of [10]: ``d`` ones per column.

    Returns an ``(n_measurements, n_samples)`` 0/1 ``int64`` matrix drawn
    deterministically from ``seed``.
    """
    if not 0 < ones_per_column <= n_measurements:
        raise SignalError(
            f"ones_per_column must be in (0, {n_measurements}], "
            f"got {ones_per_column}"
        )
    rng = np.random.default_rng(seed)
    phi = np.zeros((n_measurements, n_samples), dtype=np.int64)
    for column in range(n_samples):
        rows = rng.choice(n_measurements, size=ones_per_column, replace=False)
        phi[rows, column] = 1
    return phi


def _dwt_step_periodic(values: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodised orthonormal analysis step (float domain)."""
    n = values.size
    taps = h.size
    index = (np.arange(0, n, 2)[:, None] + np.arange(taps)[None, :]) % n
    windows = values[index]
    return windows @ h, windows @ g


def daubechies4_basis(n_samples: int, n_levels: int = 5) -> np.ndarray:
    """Orthonormal periodised Daubechies-4 synthesis matrix (``N x N``).

    Column ``k`` is the waveform whose analysis coefficients are the unit
    vector ``e_k``; because the transform is orthonormal the synthesis
    matrix is the transpose of the analysis matrix, which we build by
    analysing the identity.
    """
    if n_samples & (n_samples - 1) or n_samples < (1 << n_levels):
        raise SignalError(
            f"n_samples must be a power of two >= 2**{n_levels}, "
            f"got {n_samples}"
        )
    # Daubechies-4 (two vanishing moments) orthonormal filters.
    root3 = math.sqrt(3.0)
    norm = 4.0 * math.sqrt(2.0)
    h = np.array(
        [(1 + root3) / norm, (3 + root3) / norm,
         (3 - root3) / norm, (1 - root3) / norm]
    )
    g = h[::-1].copy()
    g[1::2] *= -1.0

    analysis = np.zeros((n_samples, n_samples))
    basis = np.eye(n_samples)
    for column in range(n_samples):
        approx = basis[:, column]
        coeffs = []
        for _ in range(n_levels):
            approx, detail = _dwt_step_periodic(approx, h, g)
            coeffs.append(detail)
        coeffs.append(approx)
        # Coefficient layout: [aJ, dJ, ..., d1].
        analysis[:, column] = np.concatenate(coeffs[::-1][0:1] + coeffs[-2::-1])
    return analysis.T


def _unit_columns(dictionary: np.ndarray) -> np.ndarray:
    """The dictionary with every non-zero column scaled to unit norm."""
    column_norms = np.linalg.norm(dictionary, axis=0)
    column_norms[column_norms == 0] = 1.0
    return dictionary / column_norms


def omp_reconstruct(
    sensing: np.ndarray,
    basis: np.ndarray,
    measurements: np.ndarray,
    max_atoms: int,
    tolerance: float = 1e-4,
    dictionary: np.ndarray | None = None,
    normalised: np.ndarray | None = None,
) -> np.ndarray:
    """Orthogonal Matching Pursuit recovery of one block.

    Args:
        sensing: the ``(M, N)`` binary sensing matrix.
        basis: the ``(N, N)`` orthonormal synthesis matrix.
        measurements: the (rescaled) measurement vector of length ``M``.
        max_atoms: sparsity budget.
        tolerance: stop when the residual norm falls below ``tolerance``
            times the measurement norm.
        dictionary: optional precomputed ``sensing @ basis`` (the
            composed dictionary); pass it when reconstructing many
            blocks to avoid recomputing the large matrix product.
        normalised: optional precomputed copy of ``dictionary`` with
            unit-norm columns, likewise shared across blocks.

    Returns:
        The reconstructed length-``N`` sample vector (float).
    """
    if dictionary is None:
        dictionary = sensing.astype(np.float64) @ basis
    if normalised is None:
        normalised = _unit_columns(dictionary)

    y = measurements.astype(np.float64)
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return np.zeros(basis.shape[0])

    residual = y.copy()
    support: list[int] = []
    coeffs = np.zeros(0)
    for _ in range(max_atoms):
        correlations = np.abs(normalised.T @ residual)
        if support:
            correlations[support] = -1.0
        atom = int(np.argmax(correlations))
        support.append(atom)
        subdict = dictionary[:, support]
        gram = subdict.T @ subdict
        rhs = subdict.T @ y
        coeffs = np.linalg.solve(
            gram + 1e-10 * np.eye(len(support)), rhs
        )
        residual = y - subdict @ coeffs
        if np.linalg.norm(residual) < tolerance * y_norm:
            break
    sparse = np.zeros(basis.shape[1])
    sparse[support] = coeffs
    return basis @ sparse


class CompressedSensingApp(BiomedicalApp):
    """50 % compressed sensing with OMP gateway reconstruction.

    Args:
        block_size: samples per CS block (``N``; power of two).
        compression: measurement fraction ``M/N`` (the paper uses 0.5).
        ones_per_column: sparse-binary density ``d``.
        seed: sensing-matrix seed (an LFSR state in hardware).
        max_atoms: OMP sparsity budget per block.

    The on-node output (what :meth:`run` returns and what occupies the
    output buffer of the faulty memory) is the concatenated measurement
    vectors, right-shifted to fit 16-bit words.
    """

    name = "compressed_sensing"
    description = "50% lossy compressed sensing (sparse binary + OMP)"
    #: The node side is one projection plus elementwise scaling, both
    #: shape-agnostic; only the gateway OMP (quality scoring) loops
    #: per trial in :meth:`output_snr_batch`.
    supports_batch = True

    def __init__(
        self,
        block_size: int = 512,
        compression: float = 0.5,
        ones_per_column: int = 4,
        seed: int = 2016,
        max_atoms: int = 64,
    ) -> None:
        super().__init__()
        if block_size & (block_size - 1) or block_size < 32:
            raise SignalError(
                f"block_size must be a power of two >= 32, got {block_size}"
            )
        if not 0.0 < compression < 1.0:
            raise SignalError(
                f"compression must be in (0, 1), got {compression}"
            )
        self.block_size = block_size
        self.n_measurements = int(round(block_size * compression))
        self.ones_per_column = ones_per_column
        self.seed = seed
        self.max_atoms = max_atoms

        self._phi = sparse_binary_matrix(
            self.n_measurements, block_size, ones_per_column, seed
        )
        # Right-shift that guarantees any measurement fits 16 signed bits:
        # a measurement sums `row weight` samples of magnitude < 2**15.
        max_row_weight = int(self._phi.sum(axis=1).max())
        self._shift = max(0, math.ceil(math.log2(max(max_row_weight, 1))))
        self._basis: np.ndarray | None = None
        self._dictionary: tuple[np.ndarray, np.ndarray] | None = None

    # -- node side -------------------------------------------------------------

    def run(self, samples: np.ndarray, fabric: MemoryFabric) -> np.ndarray:
        arr = self._check_samples(samples)
        # Complete blocks (of every stream) stack into one projection on
        # a batched fabric; the zero-padded trailing block follows on
        # its own (measurements are emitted untrimmed, as before).
        return self._run_in_windows(
            arr,
            self.block_size,
            fabric,
            lambda chunk: self._run_block(chunk, fabric),
            pad=True,
        )

    def _run_block(self, chunk: np.ndarray, fabric: MemoryFabric) -> np.ndarray:
        block = fabric.roundtrip("cs.input", chunk)
        # `block @ phi.T` equals `phi @ block` for a 1-D block and
        # projects every trial/window row of a stacked block.
        measurements = block @ self._phi.T
        scaled = saturate(measurements >> np.int64(self._shift), Q15)
        return fabric.roundtrip("cs.output", scaled)

    # -- gateway side ------------------------------------------------------------

    def _wavelet_basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = daubechies4_basis(self.block_size)
        return self._basis

    def _omp_dictionary(self) -> tuple[np.ndarray, np.ndarray]:
        """The composed Phi @ Psi dictionary and its unit-column copy,
        built once per instance."""
        if self._dictionary is None:
            dictionary = self._phi.astype(np.float64) @ self._wavelet_basis()
            self._dictionary = (dictionary, _unit_columns(dictionary))
        return self._dictionary

    def reconstruct(self, measurements: np.ndarray) -> np.ndarray:
        """Recover the sample stream from concatenated measurements."""
        y = np.asarray(measurements, dtype=np.float64)
        m = self.n_measurements
        if y.size % m:
            raise SignalError(
                f"measurement stream length {y.size} is not a multiple "
                f"of M={m}"
            )
        basis = self._wavelet_basis()
        dictionary, normalised = self._omp_dictionary()
        blocks = []
        for start in range(0, y.size, m):
            rescaled = y[start : start + m] * float(1 << self._shift)
            blocks.append(
                omp_reconstruct(
                    self._phi,
                    basis,
                    rescaled,
                    self.max_atoms,
                    dictionary=dictionary,
                    normalised=normalised,
                )
            )
        return np.concatenate(blocks)

    # -- quality ----------------------------------------------------------------

    def output_snr(
        self,
        samples: np.ndarray,
        corrupted_output: np.ndarray,
        cap_db: float = SNR_CAP_DB,
    ) -> float:
        """Reconstruction SNR against the *original* input samples.

        This is the paper's CS quality metric: even the error-free output
        only reaches the lossy-compression ceiling (the ~85 dB dashed
        line of Fig 4), because the reference is the uncompressed signal.
        """
        arr = self._check_samples(samples)
        reconstruction = self.reconstruct(corrupted_output)[: arr.size]
        return snr_db(arr, reconstruction, cap_db=cap_db)

    def output_snr_batch(
        self,
        samples: np.ndarray,
        corrupted_outputs: np.ndarray,
        cap_db: float = SNR_CAP_DB,
    ) -> np.ndarray:
        """Per-trial reconstruction SNR of a batched measurement stack.

        OMP's greedy support selection is data-dependent, so the
        gateway reconstruction runs per trial — but against the
        per-instance cached ``Phi @ Psi`` dictionary, and only after the
        whole node-side pipeline ran batched.
        """
        stack = np.asarray(corrupted_outputs)
        return np.asarray(
            [
                self.output_snr(samples, row, cap_db=cap_db)
                for row in stack
            ]
        )
