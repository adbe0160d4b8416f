"""Property tests: the trial-batched pipeline is bit-identical.

ISSUE 4's contract: every batched path — fault-map sampling, EMT
encode/decode, fabric write/read (including window stacking), the
Monte-Carlo protocol and the mission calibrator — must produce *exactly*
the numbers the sequential seed implementation produced from the same
seeds, because cached calibrations and published figures must not shift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._bitops import _popcount_swar, popcount, sign_run_length, to_signed
from repro.apps.registry import make_app
from repro.emt import make_emt
from repro.emt.base import NoProtection
from repro.emt.dream import DreamEMT
from repro.emt.hybrid import HybridEMT, VoltageRange
from repro.emt.secded import SecDedEMT
from repro.energy.technology import TECH_32NM_LP
from repro.mem.fabric import MemoryFabric
from repro.mem.faults import (
    position_fault_map,
    position_fault_map_batch,
    sample_fault_map,
    sample_fault_map_batch,
)
from repro.mem.layout import PAPER_GEOMETRY, MemoryGeometry
from repro.signals.metrics import snr_db, snr_db_batch

#: Registry names of every EMT codec the acceptance criteria call out,
#: plus a voltage-switching hybrid assembled from the paper's members.
CODEC_NAMES = ("none", "parity", "secded", "dream", "dream_secded", "hybrid")


def build_emt(name: str):
    if name == "hybrid":
        members = {
            e.name: e for e in (NoProtection(), DreamEMT(), SecDedEMT())
        }
        policy = [
            VoltageRange(0.85, 0.90, "none"),
            VoltageRange(0.65, 0.85, "dream"),
            VoltageRange(0.40, 0.65, "secded"),
        ]
        return HybridEMT(members, policy, voltage=0.6)
    return make_emt(name)


class TestBatchedFaultSampling:
    @pytest.mark.parametrize("ber", [0.0, 1e-4, 5e-3, 0.3])
    @pytest.mark.parametrize("n_trials", [1, 3, 7])
    def test_batch_rows_equal_sequential_draws(self, ber, n_trials):
        """Row t of the batch is the t-th sequential draw, bit for bit."""
        rng = np.random.default_rng(42)
        singles = [
            sample_fault_map(257, 22, ber, rng) for _ in range(n_trials)
        ]
        rng = np.random.default_rng(42)
        batch = sample_fault_map_batch(n_trials, 257, 22, ber, rng)
        assert batch.n_trials == n_trials and batch.is_batched
        for t, single in enumerate(singles):
            trial = batch.trial(t)
            assert np.array_equal(trial.set_mask, single.set_mask)
            assert np.array_equal(trial.clear_mask, single.clear_mask)

    def test_batch_leaves_rng_in_sequential_state(self):
        """Consuming the stream batched ends at the same generator state."""
        rng_a = np.random.default_rng(7)
        for _ in range(4):
            sample_fault_map(64, 16, 1e-2, rng_a)
        rng_b = np.random.default_rng(7)
        sample_fault_map_batch(4, 64, 16, 1e-2, rng_b)
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_masks_match_historical_weighted_reduction(self):
        """packbits packing reproduces the where/sum mask layout."""
        rng = np.random.default_rng(3)
        draws = rng.random((128, 22)), rng.random((128, 22))
        failed, stuck = draws[0] < 0.2, draws[1] < 0.5
        weights = (np.int64(1) << np.arange(22, dtype=np.int64))[None, :]
        expected_set = np.where(failed & stuck, weights, 0).sum(axis=1)
        expected_clear = np.where(failed & ~stuck, weights, 0).sum(axis=1)
        rng = np.random.default_rng(3)
        fault_map = sample_fault_map(128, 22, 0.2, rng)
        assert np.array_equal(fault_map.set_mask, expected_set)
        assert np.array_equal(fault_map.clear_mask, expected_clear)

    def test_position_batch_stacks_single_maps(self):
        configurations = [
            (position, stuck) for stuck in (0, 1) for position in range(16)
        ]
        batch = position_fault_map_batch(64, 16, configurations)
        assert batch.n_trials == 32
        for row, (position, stuck) in enumerate(configurations):
            single = position_fault_map(64, 16, position, stuck)
            assert np.array_equal(
                batch.trial(row).set_mask, single.set_mask
            )
            assert np.array_equal(
                batch.trial(row).clear_mask, single.clear_mask
            )

    def test_restriction_and_slicing_of_batches(self):
        rng = np.random.default_rng(11)
        batch = sample_fault_map_batch(3, 50, 22, 0.3, rng)
        narrow = batch.restricted_to(16)
        assert narrow.is_batched and narrow.word_bits == 16
        assert int(narrow.set_mask.max()) < (1 << 16)
        ranged = batch.restricted_to_words(10, 20)
        assert ranged.n_trials == 3
        assert not ranged.set_mask[:, :10].any()
        assert not ranged.clear_mask[:, 30:].any()


class TestBatchedCodecs:
    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_encode_decode_shape_agnostic(self, name):
        """2-D payload batches encode/decode row-for-row identically."""
        emt = build_emt(name)
        rng = np.random.default_rng(5)
        payload = rng.integers(0, 1 << 16, size=(4, 33), dtype=np.int64)
        stored2d, side2d = emt.encode(payload)
        corrupt2d = np.bitwise_xor(
            stored2d, rng.integers(0, 4, size=stored2d.shape) << 3
        )
        decoded2d = emt.decode(corrupt2d, side2d)
        for row in range(payload.shape[0]):
            stored1d, side1d = emt.encode(payload[row])
            assert np.array_equal(stored2d[row], stored1d)
            if side1d is not None:
                assert np.array_equal(side2d[row], side1d)
            decoded1d = emt.decode(
                corrupt2d[row],
                None if side2d is None else side2d[row],
            )
            assert np.array_equal(decoded2d[row], decoded1d)

    def test_secded_lut_fold_matches_bit_serial_reference(self):
        """The byte-LUT syndrome path equals the scalar parity trees."""
        emt = SecDedEMT()
        rng = np.random.default_rng(9)
        payload = rng.integers(0, 1 << 16, size=200, dtype=np.int64)
        stored, _ = emt.encode(payload)
        corrupted = np.bitwise_xor(
            stored, np.int64(1) << rng.integers(0, 22, size=200)
        )
        vector = emt.decode(corrupted.copy(), None)
        scalar = np.asarray(
            [emt.decode_word(int(word), 0) for word in corrupted]
        )
        assert np.array_equal(vector, scalar)

    def test_checked_kwarg_does_not_change_values(self):
        emt = SecDedEMT()
        payload = np.arange(128, dtype=np.int64)
        assert np.array_equal(
            emt.encode(payload)[0], emt.encode(payload, checked=True)[0]
        )


class TestBatchedFabric:
    def test_stacked_roundtrip_equals_window_loop(self):
        """(T, W, k) roundtrips == looping the windows one at a time."""
        geo = MemoryGeometry(n_words=256, word_bits=22, n_banks=4)
        rng = np.random.default_rng(21)
        windows = rng.integers(-30000, 30000, size=(5, 64), dtype=np.int64)
        for name in ("none", "dream", "secded"):
            emt = make_emt(name)
            fmap = sample_fault_map_batch(
                3, geo.n_words, emt.stored_bits, 0.02,
                np.random.default_rng(1),
            )
            loop_fabric = MemoryFabric(make_emt(name), fault_map=fmap, geometry=geo)
            looped = np.stack(
                [loop_fabric.roundtrip("buf", w) for w in windows], axis=1
            )
            stack_fabric = MemoryFabric(make_emt(name), fault_map=fmap, geometry=geo)
            stacked = stack_fabric.roundtrip("buf", windows[None])
            assert stacked.shape == (3, 5, 64)
            assert np.array_equal(stacked, looped)
            # End state: the last window is what the cells retain.
            assert np.array_equal(
                stack_fabric.read(stack_fabric.buffer("buf"), 64),
                loop_fabric.read(loop_fabric.buffer("buf"), 64),
            )

    def test_batched_write_read_matches_per_trial_fabrics(self):
        geo = MemoryGeometry(n_words=128, word_bits=16, n_banks=4)
        values = np.arange(-40, 40, dtype=np.int64)
        fmap = sample_fault_map_batch(
            4, geo.n_words, 16, 0.05, np.random.default_rng(2)
        )
        batched = MemoryFabric(NoProtection(), fault_map=fmap, geometry=geo)
        out = batched.roundtrip("x", values)
        assert out.shape == (4, 80)
        for t in range(4):
            single = MemoryFabric(
                NoProtection(), fault_map=fmap.trial(t), geometry=geo
            )
            assert np.array_equal(out[t], single.roundtrip("x", values))

    def test_trial_fabric_preserves_address_map_and_stats_mode(self):
        """The per-trial fallback fabrics must corrupt the same physical
        words as a sequential run with the same scrambling."""
        from repro.mem.layout import AddressMap

        geo = MemoryGeometry(n_words=64, word_bits=16, n_banks=4)
        address_map = AddressMap(geo, np.random.default_rng(3))
        fmap = sample_fault_map_batch(
            2, geo.n_words, 16, 0.1, np.random.default_rng(4)
        )
        batched = MemoryFabric(
            NoProtection(),
            fault_map=fmap,
            geometry=geo,
            address_map=address_map,
            collect_decode_stats=False,
        )
        values = np.arange(32, dtype=np.int64)
        for t in range(2):
            single = MemoryFabric(
                NoProtection(),
                fault_map=fmap.trial(t),
                geometry=geo,
                address_map=address_map,
            )
            per_trial = batched.trial(t)
            assert per_trial.sram.address_map is address_map
            assert per_trial.collect_decode_stats is False
            assert np.array_equal(
                per_trial.roundtrip("x", values),
                single.roundtrip("x", values),
            )

    def test_window_stacking_disabled_with_trace_or_scrambling(self):
        fmap = sample_fault_map_batch(
            2, PAPER_GEOMETRY.n_words, 16, 0.0, np.random.default_rng(0)
        )
        fabric = MemoryFabric(NoProtection(), fault_map=fmap)
        assert fabric.window_stacking
        traced = MemoryFabric(
            NoProtection(), fault_map=fmap, record_trace=True
        )
        assert not traced.window_stacking


class TestBatchedApps:
    #: Sample lengths covering whole-window, odd and sub-window counts.
    LENGTHS = (2880, 1023, 700)

    @pytest.mark.parametrize("app_name", ["dwt", "morphology", "matrix_filter", "compressed_sensing", "delineation"])
    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_run_batch_bit_identical_to_sequential(self, app_name, codec):
        app = make_app(app_name)
        rng = np.random.default_rng(17)
        for n_samples in self.LENGTHS:
            samples = rng.integers(
                -3000, 3000, size=n_samples
            ).astype(np.int64)
            for n_trials in (1, 3):
                emt = build_emt(codec)
                seq_rng = np.random.default_rng(99)
                sequential = np.stack(
                    [
                        app.run(
                            samples,
                            MemoryFabric(
                                build_emt(codec),
                                fault_map=sample_fault_map(
                                    PAPER_GEOMETRY.n_words,
                                    emt.stored_bits,
                                    2e-3,
                                    seq_rng,
                                ),
                            ),
                        )
                        for _ in range(n_trials)
                    ]
                )
                bat_rng = np.random.default_rng(99)
                fault_map = sample_fault_map_batch(
                    n_trials,
                    PAPER_GEOMETRY.n_words,
                    emt.stored_bits,
                    2e-3,
                    bat_rng,
                )
                batched = app.run_batch(
                    samples,
                    MemoryFabric(build_emt(codec), fault_map=fault_map),
                )
                assert np.array_equal(batched, sequential), (
                    app_name, codec, n_samples, n_trials,
                )

    def test_output_snr_batch_matches_scalar(self):
        app = make_app("dwt")
        rng = np.random.default_rng(4)
        samples = rng.integers(-2000, 2000, size=1500).astype(np.int64)
        fault_map = sample_fault_map_batch(
            3, PAPER_GEOMETRY.n_words, 16, 5e-3, np.random.default_rng(8)
        )
        outputs = app.run_batch(
            samples, MemoryFabric(NoProtection(), fault_map=fault_map)
        )
        batched = app.output_snr_batch(samples, outputs)
        scalar = [app.output_snr(samples, row) for row in outputs]
        assert np.array_equal(batched, np.asarray(scalar))


class TestMonteCarloProtocol:
    @pytest.mark.parametrize("voltage", [0.9, 0.6, 0.5])
    def test_batched_equals_sequential_across_voltages(self, voltage):
        from repro.exp.common import (
            ExperimentConfig,
            load_corpus,
            run_monte_carlo,
            run_monte_carlo_sequential,
        )

        config = ExperimentConfig(
            records=("100",), duration_s=3.0, n_runs=5
        )
        corpus = load_corpus(config)
        app = make_app("dwt")
        emts = {n: make_emt(n) for n in ("none", "dream", "secded")}
        ber = TECH_32NM_LP.ber(voltage)
        batched = run_monte_carlo(app, emts, ber, config, corpus, 123)
        sequential = run_monte_carlo_sequential(
            app, emts, ber, config, corpus, 123
        )
        assert batched.snr_mean_db == sequential.snr_mean_db
        assert batched.snr_std_db == sequential.snr_std_db


class TestBitopsKernels:
    def test_popcount_swar_matches_dispatch(self):
        rng = np.random.default_rng(12)
        words = rng.integers(0, 1 << 40, size=10_000, dtype=np.int64)
        assert np.array_equal(popcount(words), _popcount_swar(words))

    def test_to_signed_matches_historical_where_form(self):
        rng = np.random.default_rng(13)
        for width in (3, 11, 16, 22):
            patterns = rng.integers(
                0, 1 << width, size=500, dtype=np.int64
            )
            sign_bit = np.int64(1) << np.int64(width - 1)
            magnitude = np.bitwise_and(
                patterns, (np.int64(1) << width) - 1
            )
            expected = np.where(
                np.bitwise_and(magnitude, sign_bit) != 0,
                magnitude - (np.int64(1) << np.int64(width)),
                magnitude,
            )
            assert np.array_equal(to_signed(patterns, width), expected)

    def test_sign_run_length_matches_threshold_form(self):
        rng = np.random.default_rng(14)
        for width in (4, 15, 16):
            values = rng.integers(
                -(1 << (width - 1)), 1 << (width - 1), size=400
            ).astype(np.int64)
            got = sign_run_length(values, width)
            # Historical branch-free threshold count.
            mask = (np.int64(1) << width) - 1
            patterns = np.bitwise_and(values, mask)
            msb = np.bitwise_and(patterns >> (width - 1), 1)
            folded = np.bitwise_xor(patterns, msb * mask)
            run = np.zeros(patterns.shape, dtype=np.int64)
            for k in range(1, width + 1):
                run += (
                    folded < (np.int64(1) << np.int64(width - k))
                ).astype(np.int64)
            assert np.array_equal(got, np.clip(run, 1, width))

    def test_snr_db_batch_matches_scalar_with_edge_cases(self):
        rng = np.random.default_rng(15)
        theo = rng.normal(size=64)
        batch = np.stack([
            theo.copy(),                     # exact -> cap
            theo + rng.normal(size=64),      # ordinary
            np.zeros(64),                    # heavy corruption
        ])
        got = snr_db_batch(theo, batch, cap_db=90.0)
        expected = [snr_db(theo, row, cap_db=90.0) for row in batch]
        assert np.array_equal(got, np.asarray(expected))
        # Zero reference: 0 dB for corrupted rows, cap for exact rows.
        zero_ref = np.zeros(8)
        rows = np.stack([np.zeros(8), np.ones(8)])
        got = snr_db_batch(zero_ref, rows, cap_db=50.0)
        assert got.tolist() == [50.0, 0.0]
