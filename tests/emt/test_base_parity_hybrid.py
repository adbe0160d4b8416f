"""Tests for the EMT interface, NoProtection, ParityEMT and HybridEMT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.emt import (
    DecodeStats,
    DreamEMT,
    HybridEMT,
    NoProtection,
    ParityEMT,
    SecDedEMT,
    VoltageRange,
    make_emt,
)
from repro.errors import EMTError

WORD16 = st.integers(min_value=0, max_value=0xFFFF)


class TestDecodeStats:
    def test_merge_accumulates(self):
        a = DecodeStats(words=10, corrected=2, detected_uncorrectable=1)
        b = DecodeStats(words=5, corrected=1, detected_uncorrectable=4)
        a.merge(b)
        assert (a.words, a.corrected, a.detected_uncorrectable) == (15, 3, 5)


class TestNoProtection:
    def test_geometry(self):
        emt = NoProtection()
        assert emt.stored_bits == 16
        assert emt.side_bits == 0
        assert emt.extra_bits == 0

    @given(pattern=WORD16)
    def test_identity_roundtrip(self, pattern):
        emt = NoProtection()
        stored, side = emt.encode(np.array([pattern]))
        assert side is None
        assert int(emt.decode(stored, None)[0]) == pattern

    def test_faults_reach_payload_unchecked(self):
        emt = NoProtection()
        stored, _ = emt.encode(np.array([0x0000]))
        decoded = emt.decode(stored | 0x8000, None)
        assert int(decoded[0]) == 0x8000

    def test_encode_returns_copy(self):
        emt = NoProtection()
        payload = np.array([1, 2, 3])
        stored, _ = emt.encode(payload)
        stored[0] = 99
        assert payload[0] == 1

    def test_rejects_tiny_word(self):
        with pytest.raises(EMTError):
            NoProtection(data_bits=1)


class TestParity:
    def test_geometry(self):
        emt = ParityEMT()
        assert emt.stored_bits == 17
        assert emt.extra_bits == 1

    @given(pattern=WORD16)
    def test_clean_roundtrip(self, pattern):
        emt = ParityEMT()
        stored, side = emt.encode(np.array([pattern]))
        assert side is None
        assert int(emt.decode(stored, None)[0]) == pattern

    @given(pattern=WORD16, position=st.integers(min_value=0, max_value=16))
    def test_single_error_detected_not_corrected(self, pattern, position):
        emt = ParityEMT()
        stored, _ = emt.encode(np.array([pattern]))
        corrupted = stored ^ (1 << position)
        stats = DecodeStats()
        decoded = emt.decode(corrupted, None, stats)
        assert stats.detected_uncorrectable == 1
        assert int(decoded[0]) == int(corrupted[0]) & 0xFFFF

    @given(pattern=WORD16)
    def test_double_error_escapes_detection(self, pattern):
        emt = ParityEMT()
        stored, _ = emt.encode(np.array([pattern]))
        stats = DecodeStats()
        emt.decode(stored ^ 0b11, None, stats)
        assert stats.detected_uncorrectable == 0


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("none", NoProtection), ("dream", DreamEMT), ("secded", SecDedEMT),
    ])
    def test_make_emt(self, name, cls):
        assert isinstance(make_emt(name), cls)

    def test_make_emt_unknown(self):
        with pytest.raises(EMTError):
            make_emt("reed-solomon")


def build_hybrid(voltage: float = 0.7) -> HybridEMT:
    members = {
        e.name: e for e in (NoProtection(), DreamEMT(), SecDedEMT())
    }
    policy = [
        VoltageRange(0.85, 0.90, "none"),
        VoltageRange(0.65, 0.85, "dream"),
        VoltageRange(0.55, 0.65, "secded"),
    ]
    return HybridEMT(members, policy, voltage=voltage)


class TestVoltageRange:
    def test_contains_is_inclusive(self):
        entry = VoltageRange(0.65, 0.85, "dream")
        assert entry.contains(0.65)
        assert entry.contains(0.85)
        assert not entry.contains(0.86)

    def test_rejects_empty_range(self):
        with pytest.raises(EMTError):
            VoltageRange(0.9, 0.5, "none")


class TestHybrid:
    def test_selects_paper_ranges(self):
        hybrid = build_hybrid(0.9)
        assert hybrid.active.name == "none"
        hybrid.set_voltage(0.7)
        assert hybrid.active.name == "dream"
        hybrid.set_voltage(0.6)
        assert hybrid.active.name == "secded"

    def test_boundary_prefers_upper_range(self):
        # 0.85 is in both [0.85, 0.9] (none) and [0.65, 0.85] (dream):
        # the upper range's technique is safe there and cheaper.
        hybrid = build_hybrid()
        for voltage, name in ((0.9, "none"), (0.86, "none"),
                              (0.85, "none"), (0.84, "dream"),
                              (0.66, "dream"), (0.65, "dream"),
                              (0.64, "secded"), (0.55, "secded")):
            assert hybrid.select(voltage).name == name, voltage

    def test_uncovered_voltage_raises(self):
        hybrid = build_hybrid(0.7)
        with pytest.raises(EMTError):
            hybrid.set_voltage(0.5)

    def test_geometry_is_widest_member(self):
        hybrid = build_hybrid()
        assert hybrid.stored_bits == 22  # SEC/DED provisioning
        assert hybrid.side_bits == 5  # DREAM mask memory provisioning

    @given(pattern=WORD16)
    def test_delegates_roundtrip(self, pattern):
        hybrid = build_hybrid(0.7)  # dream active
        stored, side = hybrid.encode(np.array([pattern]))
        assert int(hybrid.decode(stored, side)[0]) == pattern
        assert hybrid.encode_word(pattern)[0] == pattern

    def test_policy_must_reference_members(self):
        members = {"none": NoProtection()}
        with pytest.raises(EMTError):
            HybridEMT(members, [VoltageRange(0.5, 0.9, "dream")], 0.7)

    def test_members_must_agree_on_width(self):
        members = {
            "none": NoProtection(data_bits=16),
            "dream": DreamEMT(data_bits=32),
        }
        with pytest.raises(EMTError):
            HybridEMT(members, [VoltageRange(0.5, 0.9, "none")], 0.7)

    def test_requires_members(self):
        with pytest.raises(EMTError):
            HybridEMT({}, [], 0.7)
