"""Tests for the compressed-sensing application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import CompressedSensingApp
from repro.apps.base import clean_fabric
from repro.apps.compressed_sensing import (
    daubechies4_basis,
    omp_reconstruct,
    sparse_binary_matrix,
)
from repro.errors import SignalError
from repro.mem import MemoryFabric, position_fault_map
from repro.emt import NoProtection


class TestSensingMatrix:
    def test_column_weights(self):
        phi = sparse_binary_matrix(64, 128, 4, seed=1)
        assert phi.shape == (64, 128)
        assert np.all(phi.sum(axis=0) == 4)
        assert set(np.unique(phi)) <= {0, 1}

    def test_deterministic(self):
        a = sparse_binary_matrix(64, 128, 4, seed=9)
        b = sparse_binary_matrix(64, 128, 4, seed=9)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(SignalError):
            sparse_binary_matrix(4, 8, 5, seed=0)
        with pytest.raises(SignalError):
            sparse_binary_matrix(4, 8, 0, seed=0)


class TestWaveletBasis:
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_orthonormal(self, n):
        basis = daubechies4_basis(n, n_levels=4)
        assert np.abs(basis.T @ basis - np.eye(n)).max() < 1e-10

    def test_validation(self):
        with pytest.raises(SignalError):
            daubechies4_basis(100)  # not a power of two
        with pytest.raises(SignalError):
            daubechies4_basis(16, n_levels=5)  # too many levels

    def test_smooth_signal_is_compressible(self):
        n = 256
        basis = daubechies4_basis(n)
        t = np.linspace(0, 4 * np.pi, n)
        x = np.sin(t) + 0.5 * np.sin(3 * t)
        coeffs = basis.T @ x
        sorted_energy = np.sort(coeffs**2)[::-1]
        top32 = sorted_energy[:32].sum() / sorted_energy.sum()
        assert top32 > 0.99


class TestOmp:
    def test_recovers_exactly_sparse_signal(self, rng):
        n, m, k = 128, 64, 6
        basis = daubechies4_basis(n, n_levels=4)
        phi = sparse_binary_matrix(m, n, 4, seed=3)
        coeffs = np.zeros(n)
        support = rng.choice(n, size=k, replace=False)
        coeffs[support] = rng.normal(size=k) * 100
        x = basis @ coeffs
        y = phi.astype(float) @ x
        xhat = omp_reconstruct(phi, basis, y, max_atoms=2 * k)
        assert np.abs(xhat - x).max() < 1e-6 * np.abs(x).max()

    def test_zero_measurements_give_zero(self):
        basis = daubechies4_basis(64, n_levels=3)
        phi = sparse_binary_matrix(32, 64, 4, seed=5)
        xhat = omp_reconstruct(phi, basis, np.zeros(32), max_atoms=8)
        assert np.all(xhat == 0)


class TestCompressedSensingApp:
    def test_output_is_half_the_input(self, short_samples):
        app = CompressedSensingApp(block_size=512)
        out = app.run(short_samples, clean_fabric())
        assert out.shape == (short_samples.size // 2,)

    def test_output_fits_16_bits(self, short_samples):
        out = CompressedSensingApp().run(short_samples, clean_fabric())
        assert int(out.max()) <= 32767 and int(out.min()) >= -32768

    def test_reconstruction_quality_clean(self, record_100):
        """The error-free ceiling: dominated by compression loss, so
        well below the 16-bit cap but clearly above garbage."""
        app = CompressedSensingApp()
        samples = record_100.samples[:1024]
        out = app.run(samples, clean_fabric())
        snr = app.output_snr(samples, out)
        assert 10.0 < snr < 40.0

    def test_msb_fault_on_measurements_destroys_reconstruction(
        self, record_100
    ):
        app = CompressedSensingApp()
        samples = record_100.samples[:512]
        clean_snr = app.output_snr(
            samples, app.run(samples, clean_fabric())
        )
        fm = position_fault_map(16384, 16, 14, 0)
        fabric = MemoryFabric(NoProtection(), fault_map=fm)
        corrupted_snr = app.output_snr(
            samples, app.run(samples, fabric)
        )
        assert corrupted_snr < clean_snr - 5

    def test_lsb_fault_is_tolerated(self, record_100):
        """Section III: CS tolerates LSB-position errors."""
        app = CompressedSensingApp()
        samples = record_100.samples[:512]
        clean_snr = app.output_snr(
            samples, app.run(samples, clean_fabric())
        )
        fm = position_fault_map(16384, 16, 0, 1)
        fabric = MemoryFabric(NoProtection(), fault_map=fm)
        corrupted_snr = app.output_snr(samples, app.run(samples, fabric))
        assert corrupted_snr > clean_snr - 2

    def test_reconstruct_equals_unshared_omp(self, record_100):
        """Sharing the dictionary and its unit-column copy across blocks
        changes no bit of the reconstruction."""
        app = CompressedSensingApp()
        measurements = app.run(record_100.samples[:1024], clean_fabric())
        basis = daubechies4_basis(app.block_size)
        scale = float(1 << app._shift)
        m = app.n_measurements
        expected = np.concatenate([
            omp_reconstruct(app._phi, basis,
                            measurements[start:start + m] * scale,
                            app.max_atoms)
            for start in range(0, measurements.size, m)
        ])
        assert np.array_equal(app.reconstruct(measurements), expected)

    def test_reconstruct_validates_length(self):
        app = CompressedSensingApp()
        with pytest.raises(SignalError):
            app.reconstruct(np.zeros(100))

    def test_padding_of_partial_block(self, record_100):
        app = CompressedSensingApp(block_size=512)
        samples = record_100.samples[:700]
        out = app.run(samples, clean_fabric())
        assert out.shape == (512,)  # two blocks of 256 measurements

    def test_validation(self):
        with pytest.raises(SignalError):
            CompressedSensingApp(block_size=100)
        with pytest.raises(SignalError):
            CompressedSensingApp(compression=1.5)

    def test_deterministic_given_seed(self, short_samples):
        a = CompressedSensingApp(seed=7).run(short_samples, clean_fabric())
        b = CompressedSensingApp(seed=7).run(short_samples, clean_fabric())
        assert np.array_equal(a, b)
