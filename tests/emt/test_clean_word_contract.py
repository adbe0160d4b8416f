"""The clean-word contract every codec keeps.

``decode(encode(x)) == x`` for an intact stored word, with zero
``corrected`` and zero ``detected_uncorrectable``: the memory fabric
relies on it to run the codec only on the words that hold a fault.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import emt as emt_package
from repro.emt import (
    EMT,
    DecodeStats,
    DreamEMT,
    DreamSecDedEMT,
    HybridEMT,
    NoProtection,
    ParityEMT,
    SecDedEMT,
    VoltageRange,
)

WORD_SIZES = (8, 16, 32)


def _hybrid(data_bits: int, active: str) -> HybridEMT:
    members = {
        codec.name: codec
        for codec in (
            NoProtection(data_bits),
            DreamEMT(data_bits),
            SecDedEMT(data_bits),
        )
    }
    policy = [VoltageRange(0.0, 1.0, active)]
    return HybridEMT(members, policy, voltage=0.5)


CODECS = {
    "none": NoProtection,
    "parity": ParityEMT,
    "secded": SecDedEMT,
    "dream": DreamEMT,
    "dream_no_boundary": lambda bits: DreamEMT(bits, compensate_boundary=False),
    "dream_secded": DreamSecDedEMT,
    "hybrid_none": lambda bits: _hybrid(bits, "none"),
    "hybrid_dream": lambda bits: _hybrid(bits, "dream"),
    "hybrid_secded": lambda bits: _hybrid(bits, "secded"),
}


def _concrete_codecs(base: type = EMT) -> set[type]:
    found = set()
    for sub in base.__subclasses__():
        if sub.__module__.startswith(emt_package.__name__):
            if not getattr(sub, "__abstractmethods__", None):
                found.add(sub)
            found |= _concrete_codecs(sub)
    return found


def test_every_in_tree_codec_is_covered():
    covered = {type(make(16)) for make in CODECS.values()}
    assert _concrete_codecs() <= covered


def _payloads(bits: int) -> np.ndarray:
    """Edge patterns (zero, all ones, sign boundaries) plus random words."""
    top = (1 << bits) - 1
    half = 1 << (bits - 1)
    edges = np.array([0, 1, top, top - 1, half, half - 1], dtype=np.int64)
    rng = np.random.default_rng(bits)
    words = rng.integers(0, top, size=4096, dtype=np.int64, endpoint=True)
    # Short sign runs and long ones: DREAM's side info spans them all.
    runs = np.concatenate(
        [(top >> shift, ~(top >> shift) & top) for shift in range(bits)]
    )
    return np.concatenate([edges, words, runs])


@pytest.mark.parametrize("bits", WORD_SIZES)
@pytest.mark.parametrize("codec", sorted(CODECS))
def test_intact_words_decode_to_themselves(codec, bits):
    emt = CODECS[codec](bits)
    payload = _payloads(bits)
    stored, side = emt.encode(payload)
    stats = DecodeStats()
    decoded = emt.decode(stored, side, stats)
    assert np.array_equal(decoded, payload)
    assert stats == DecodeStats(words=payload.size)
