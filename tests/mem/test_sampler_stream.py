"""Stream contract of the batched stuck-at sampler.

``sample_fault_map_batch`` reads stuck values only at the failed cells
of trials with few faults, skipping the rest of the PCG64 stream, and
draws the whole stuck-value block otherwise.  Whichever branch a trial
takes, the masks and the generator state it leaves behind must equal
those of sequential ``sample_fault_map`` calls on the same generator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.energy.technology import TECH_32NM_LP
from repro.mem import FaultMap, faults, sample_fault_map, sample_fault_map_batch

#: The paper's array at the widest (SEC/DED) codeword.
N_WORDS, WORD_BITS = 16384, 22

#: The nine profiled voltages, 0.50-0.90 V in 50 mV steps: ~4,300
#: faults per trial at the low end, far fewer than one at the top.
VOLTAGES = tuple(round(0.50 + 0.05 * step, 2) for step in range(9))


def _sequential(n_trials, ber, rng, n_words=N_WORDS, word_bits=WORD_BITS):
    singles = [
        sample_fault_map(n_words, word_bits, ber, rng) for _ in range(n_trials)
    ]
    return (
        np.stack([single.set_mask for single in singles]),
        np.stack([single.clear_mask for single in singles]),
    )


def _assert_same_masks(batch: FaultMap, expected) -> None:
    set_mask, clear_mask = expected
    assert np.array_equal(batch.set_mask, set_mask)
    assert np.array_equal(batch.clear_mask, clear_mask)


class _BranchSpy:
    """Counts trials drawn site by site and trials drawn densely."""

    def __init__(self, monkeypatch):
        self.sparse = self.dense = 0
        at_sites, pack = faults._stuck_high_at_sites, faults._pack_masks

        def spy_sites(*args):
            self.sparse += 1
            return at_sites(*args)

        def spy_pack(*args):
            self.dense += 1
            return pack(*args)

        monkeypatch.setattr(faults, "_stuck_high_at_sites", spy_sites)
        monkeypatch.setattr(faults, "_pack_masks", spy_pack)


def test_every_profiled_voltage_matches_sequential(monkeypatch):
    """Masks and the next draw equal the sequential reference at all nine
    voltages, covering both sides of the sparse/dense switch."""
    sparse = dense = 0
    for voltage in VOLTAGES:
        ber = TECH_32NM_LP.ber(voltage)
        seed = (20160314, round(voltage * 100))
        reference_rng = np.random.default_rng(seed)
        expected = _sequential(3, ber, reference_rng)
        rng = np.random.default_rng(seed)
        with monkeypatch.context() as patch:
            spy = _BranchSpy(patch)
            batch = sample_fault_map_batch(3, N_WORDS, WORD_BITS, ber, rng)
        sparse, dense = sparse + spy.sparse, dense + spy.dense
        _assert_same_masks(batch, expected)
        assert rng.random() == reference_rng.random(), voltage
    assert sparse and dense


def test_non_pcg64_generator_takes_the_dense_path(monkeypatch):
    ber = TECH_32NM_LP.ber(0.75)
    reference_rng = np.random.Generator(np.random.Philox(17))
    expected = _sequential(4, ber, reference_rng)
    spy = _BranchSpy(monkeypatch)
    rng = np.random.Generator(np.random.Philox(17))
    batch = sample_fault_map_batch(4, N_WORDS, WORD_BITS, ber, rng)
    _assert_same_masks(batch, expected)
    assert rng.random() == reference_rng.random()
    assert spy.sparse == 0 and spy.dense == 4


@pytest.mark.parametrize("voltage", [0.6, 0.75, 0.9])
def test_pending_32_bit_half_survives_the_skip(voltage):
    """PCG64's ``advance`` clears the buffered half a float32 draw leaves;
    the sampler must hand it back as the dense draw would."""
    ber = TECH_32NM_LP.ber(voltage)
    reference_rng = np.random.default_rng(5)
    before = reference_rng.random(3, dtype=np.float32)
    expected = _sequential(2, ber, reference_rng)
    rng = np.random.default_rng(5)
    assert np.array_equal(rng.random(3, dtype=np.float32), before)
    assert rng.bit_generator.state["has_uint32"] == 1
    batch = sample_fault_map_batch(2, N_WORDS, WORD_BITS, ber, rng)
    _assert_same_masks(batch, expected)
    assert rng.random(dtype=np.float32) == reference_rng.random(
        dtype=np.float32
    )
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_fault_free_trials_still_consume_their_blocks():
    """A trial with no failed cell skips its whole stuck-value block."""
    reference_rng = np.random.default_rng(9)
    expected = _sequential(5, 1e-9, reference_rng, n_words=64, word_bits=16)
    rng = np.random.default_rng(9)
    batch = sample_fault_map_batch(5, 64, 16, 1e-9, rng)
    assert batch.n_faults == 0
    _assert_same_masks(batch, expected)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_restricted_trials_equals_restrict_then_select():
    batch = sample_fault_map_batch(
        6, 200, 22, 2e-2, np.random.default_rng(4)
    )
    source = batch.set_mask.copy(), batch.clear_mask.copy()
    rows = np.array([0, 2, 5])
    picked = batch.restricted_trials(rows, 16)
    whole = batch.restricted_to(16)
    assert picked.word_bits == 16 and picked.n_trials == 3
    assert np.array_equal(picked.set_mask, whole.set_mask[rows])
    assert np.array_equal(picked.clear_mask, whole.clear_mask[rows])
    # The in-place restriction works on the gathered rows only.
    _assert_same_masks(batch, source)
