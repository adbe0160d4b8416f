"""Vectorised bit-manipulation helpers shared across the package.

All functions operate on numpy integer arrays and are branch-free where
possible: the quality experiments corrupt and decode millions of words, so
these helpers are the hot path of the whole library.

Words are handled as *unsigned* bit patterns held in ``int64`` arrays (wide
enough for the 22-bit SEC/DED codewords with headroom) unless a function
documents otherwise.  Conversion to and from two's-complement ``int16``
payloads is done at the edges (:func:`to_unsigned`, :func:`to_signed`).
"""

from __future__ import annotations

import numpy as np

from .errors import FixedPointError

__all__ = [
    "HAS_BITWISE_COUNT",
    "bit_mask",
    "field_mask",
    "to_unsigned",
    "to_signed",
    "popcount",
    "parity",
    "sign_run_length",
    "extract_bit",
    "set_bit",
    "clear_bit",
    "pack_fields",
    "unpack_field",
]


def bit_mask(width: int) -> int:
    """Return an integer with the ``width`` least-significant bits set.

    >>> bit_mask(4)
    15
    """
    if width < 0:
        raise FixedPointError(f"bit width must be non-negative, got {width}")
    return (1 << width) - 1


def field_mask(lsb: int, width: int) -> int:
    """Return a mask covering ``width`` bits starting at bit ``lsb``.

    >>> hex(field_mask(4, 4))
    '0xf0'
    """
    if lsb < 0:
        raise FixedPointError(f"field lsb must be non-negative, got {lsb}")
    return bit_mask(width) << lsb


def to_unsigned(values: np.ndarray, width: int) -> np.ndarray:
    """Reinterpret two's-complement signed values as ``width``-bit patterns.

    The result is an ``int64`` array whose elements lie in
    ``[0, 2**width)``.  This is the canonical entry point for feeding signed
    samples into the bit-accurate memory model.
    """
    arr = np.asarray(values, dtype=np.int64)
    return np.bitwise_and(arr, bit_mask(width))


def to_signed(patterns: np.ndarray, width: int) -> np.ndarray:
    """Reinterpret ``width``-bit patterns as two's-complement signed values.

    Inverse of :func:`to_unsigned`; returns ``int64``.  Branch-free:
    subtracting ``sign_bit << 1`` exactly when the sign bit is set
    equals the conditional ``magnitude - 2**width`` without
    materialising a boolean select (this sits on every fabric read of
    the trial-batched hot path).
    """
    arr = np.asarray(patterns, dtype=np.int64)
    out = np.bitwise_and(arr, bit_mask(width))
    # (m ^ 2**(w-1)) - 2**(w-1): adds the offset below the sign point,
    # subtracts it above — two's complement in two in-place vector ops.
    sign_bit = np.int64(1) << np.int64(width - 1)
    out ^= sign_bit
    out -= sign_bit
    return out


#: Whether the running numpy provides the native popcount ufunc
#: (numpy >= 2.0).  Exposed so the micro-benchmarks can report which
#: implementation they measured.
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount_swar(arr: np.ndarray) -> np.ndarray:
    """SWAR (parallel-bits) popcount for numpy < 2.0.

    The classic 64-bit divide-and-conquer reduction: pair sums, nibble
    sums, then a multiply-accumulate folding all byte counts into the
    top byte.  Works on any shape; ~5 vector ops per element versus a
    Python loop per bit.
    """
    x = arr.astype(np.uint64)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return ((x * h01) >> np.uint64(56)).astype(np.int64)


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element population count (number of set bits).

    Uses :func:`numpy.bitwise_count` (a native ufunc, numpy >= 2.0) when
    available and a vectorised SWAR reduction otherwise; inputs must be
    non-negative.  Shape-agnostic — the trial-batched pipeline feeds it
    ``(n_trials, n_words)`` arrays.
    """
    arr = np.asarray(values)
    if arr.size and int(arr.min()) < 0:
        raise FixedPointError("popcount requires non-negative bit patterns")
    if HAS_BITWISE_COUNT:
        return np.bitwise_count(arr).astype(np.int64)
    return _popcount_swar(np.asarray(arr, dtype=np.int64))


def parity(values: np.ndarray) -> np.ndarray:
    """Per-element XOR-reduction of all bits (0 for even parity, 1 for odd)."""
    return np.bitwise_and(popcount(values), 1)


def sign_run_length(values: np.ndarray, width: int) -> np.ndarray:
    """Length of the run of identical most-significant bits per word.

    For a ``width``-bit two's-complement word, the result counts how many
    leading bits (starting at the MSB) share the MSB's value.  The result is
    in ``[1, width]``; it equals ``width`` exactly for the all-zeros and
    all-ones patterns.

    This is the quantity DREAM's write-path logic computes: the number of
    sign-extension bits that carry no information beyond the sign itself.

    The implementation is branch-free: XOR-ing the word with a copy of its
    MSB replicated everywhere turns the leading run into leading zeros,
    whose count is ``width`` minus the folded word's bit length.  The bit
    length comes from the exact base-2 exponent :func:`numpy.frexp`
    reports — ``folded`` fits far below the 2**53 double-precision
    ceiling, so the conversion is lossless (and three vector ops replace
    the ``width`` threshold comparisons this function historically made
    per word; it is the hottest kernel of DREAM's batched encode path).
    """
    if width > 52:  # pragma: no cover - EMTs cap payloads at 32 bits
        raise FixedPointError(
            f"sign_run_length supports widths <= 52, got {width}"
        )
    patterns = to_unsigned(values, width)
    msb = np.bitwise_and(patterns >> (width - 1), 1)
    # Replicate the MSB across the full word, XOR to make the run zeros.
    replicated = msb * np.int64(bit_mask(width))
    folded = np.bitwise_xor(patterns, replicated)
    # frexp: folded = m * 2**e with m in [0.5, 1) -> e == bit_length.
    # folded's MSB is zero by construction (it equals the word's MSB
    # XOR itself), so bit_length <= width - 1 and the run lands in
    # [1, width] without clamping; frexp(0) reports exponent 0, mapping
    # the all-equal word to the full-width run.
    bit_length = np.frexp(folded.astype(np.float64))[1]
    return np.int64(width) - bit_length.astype(np.int64)


def extract_bit(values: np.ndarray, position: int) -> np.ndarray:
    """Return bit ``position`` (0 = LSB) of each element as 0/1 ``int64``."""
    arr = np.asarray(values).astype(np.int64)
    return np.bitwise_and(arr >> np.int64(position), 1)


def set_bit(values: np.ndarray, position: int) -> np.ndarray:
    """Return a copy of ``values`` with bit ``position`` forced to 1."""
    arr = np.asarray(values).astype(np.int64)
    return np.bitwise_or(arr, np.int64(1) << np.int64(position))


def clear_bit(values: np.ndarray, position: int) -> np.ndarray:
    """Return a copy of ``values`` with bit ``position`` forced to 0."""
    arr = np.asarray(values).astype(np.int64)
    return np.bitwise_and(arr, ~(np.int64(1) << np.int64(position)))


def pack_fields(fields: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Pack ``(values, width)`` pairs into single words, first pair at LSB.

    Each ``values`` array must already fit in its ``width`` bits.

    >>> import numpy as np
    >>> pack_fields([(np.array([3]), 2), (np.array([1]), 1)])
    array([7])
    """
    if not fields:
        raise FixedPointError("pack_fields requires at least one field")
    result = None
    lsb = 0
    for values, width in fields:
        arr = np.asarray(values).astype(np.int64)
        if arr.size and (int(arr.max()) > bit_mask(width) or int(arr.min()) < 0):
            raise FixedPointError(
                f"field values do not fit in {width} bits"
            )
        shifted = arr << np.int64(lsb)
        result = shifted if result is None else np.bitwise_or(result, shifted)
        lsb += width
    return result


def unpack_field(words: np.ndarray, lsb: int, width: int) -> np.ndarray:
    """Extract a ``width``-bit field starting at bit ``lsb`` from each word."""
    arr = np.asarray(words).astype(np.int64)
    return np.bitwise_and(arr >> np.int64(lsb), bit_mask(width))
