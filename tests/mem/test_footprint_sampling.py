"""Footprint-bounded sampling: the same stream, masks only where read.

``sample_fault_map_batch(..., live_words=k)`` draws the failure-site and
stuck-value uniforms of words ``[0, k)`` and advances a PCG64 generator
past the rest of each block.  Against the unbounded draw on the same
generator, the masks must agree on the live words, be zero beyond them,
and leave the generator in the very same state — including the 32-bit
half a prior ``uint32`` draw buffered.  Any other bit generator cannot
skip and must ignore the bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emt import make_emt
from repro.errors import MemoryModelError
from repro.mem import FaultMap, MemoryFabric, sample_fault_map_batch
from repro.mem.layout import AddressMap, MemoryGeometry
from repro.mem.sram import FaultySRAM

N_WORDS, WORD_BITS = 512, 22

#: ~1 failed cell per trial (sparse stuck branch) and ~225 (dense).
SPARSE_BER, DENSE_BER = 1e-4, 2e-2

live_words = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=N_WORDS - 1),
    st.just(N_WORDS),
    st.integers(min_value=N_WORDS + 1, max_value=4 * N_WORDS),
)


def _generator(seed: int, pending_half: bool) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    if pending_half:
        rng.integers(0, 1 << 20, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@settings(max_examples=80, deadline=None)
@given(
    live=live_words,
    ber=st.sampled_from([0.0, SPARSE_BER, DENSE_BER]),
    n_trials=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pending_half=st.booleans(),
)
def test_bounded_draw_matches_the_full_draw(
    live, ber, n_trials, seed, pending_half
):
    full_rng = _generator(seed, pending_half)
    full = sample_fault_map_batch(n_trials, N_WORDS, WORD_BITS, ber, full_rng)
    rng = _generator(seed, pending_half)
    bounded = sample_fault_map_batch(
        n_trials, N_WORDS, WORD_BITS, ber, rng, live_words=live
    )
    kept = min(live, N_WORDS)
    assert bounded.live_words == kept
    assert np.array_equal(bounded.set_mask[:, :kept], full.set_mask[:, :kept])
    assert np.array_equal(
        bounded.clear_mask[:, :kept], full.clear_mask[:, :kept]
    )
    assert not bounded.set_mask[:, kept:].any()
    assert not bounded.clear_mask[:, kept:].any()
    assert rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.parametrize("ber", [SPARSE_BER, DENSE_BER])
def test_both_stuck_branches_run_under_a_bound(monkeypatch, ber):
    from repro.mem import faults

    calls = {"sparse": 0, "dense": 0}
    at_sites, pack = faults._stuck_high_at_sites, faults._pack_masks

    def spy_sites(*args):
        calls["sparse"] += 1
        return at_sites(*args)

    def spy_pack(*args):
        calls["dense"] += 1
        return pack(*args)

    monkeypatch.setattr(faults, "_stuck_high_at_sites", spy_sites)
    monkeypatch.setattr(faults, "_pack_masks", spy_pack)
    sample_fault_map_batch(
        4, N_WORDS, WORD_BITS, ber, np.random.default_rng(1),
        live_words=N_WORDS // 2,
    )
    branch = "sparse" if ber == SPARSE_BER else "dense"
    assert calls[branch] == 4 and sum(calls.values()) == 4


@settings(max_examples=20, deadline=None)
@given(
    live=live_words,
    n_trials=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_non_pcg64_generator_ignores_the_bound(live, n_trials, seed):
    full_rng = np.random.Generator(np.random.Philox(seed))
    full = sample_fault_map_batch(
        n_trials, N_WORDS, WORD_BITS, DENSE_BER, full_rng
    )
    rng = np.random.Generator(np.random.Philox(seed))
    ignored = sample_fault_map_batch(
        n_trials, N_WORDS, WORD_BITS, DENSE_BER, rng, live_words=live
    )
    assert ignored.live_words is None
    assert np.array_equal(ignored.set_mask, full.set_mask)
    assert np.array_equal(ignored.clear_mask, full.clear_mask)
    # Philox's state holds arrays; the next draws compare the streams.
    assert np.array_equal(rng.random(4), full_rng.random(4))


def test_negative_bound_rejected():
    with pytest.raises(MemoryModelError, match="live_words"):
        sample_fault_map_batch(
            1, N_WORDS, WORD_BITS, DENSE_BER, np.random.default_rng(0),
            live_words=-1,
        )


class TestBoundedMap:
    @pytest.fixture
    def bounded(self):
        return sample_fault_map_batch(
            3, N_WORDS, WORD_BITS, DENSE_BER, np.random.default_rng(2),
            live_words=100,
        )

    def test_derived_maps_keep_the_bound(self, bounded):
        assert bounded.trial(1).live_words == 100
        assert bounded.restricted_to(16).live_words == 100
        assert bounded.restricted_trials(np.array([0, 2]), 16).live_words == 100
        assert bounded.restricted_to_words(10, 20).live_words == 100

    def test_constructor_rejects_faults_past_the_bound(self):
        with pytest.raises(MemoryModelError, match="beyond"):
            FaultMap(16, np.array([0, 0, 1]), np.zeros(3, int), live_words=2)
        with pytest.raises(MemoryModelError, match="outside"):
            FaultMap(16, np.zeros(3, int), np.zeros(3, int), live_words=4)
        assert FaultMap(
            16, np.array([1, 0, 0]), np.zeros(3, int), live_words=1
        ).live_words == 1

    def test_fabric_refuses_a_buffer_past_the_bound(self, bounded):
        emt = make_emt("secded")
        fabric = MemoryFabric(
            emt, fault_map=bounded, geometry=MemoryGeometry(N_WORDS, 16)
        )
        fabric.allocate("fits", 60)
        fabric.allocate("fits", 40)  # idempotent by name: no new words
        fabric.allocate("exactly", 40)
        with pytest.raises(MemoryModelError, match="past the 100 words"):
            fabric.allocate("spills", 1)

    def test_bounded_map_refuses_an_address_map(self, bounded):
        geometry = MemoryGeometry(N_WORDS, WORD_BITS)
        with pytest.raises(MemoryModelError, match="address map"):
            FaultySRAM(
                geometry, bounded, AddressMap(geometry, np.random.default_rng(1))
            )
