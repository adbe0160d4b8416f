"""The EMT interface and the unprotected baseline.

An EMT transforms ``data_bits``-wide payload words into stored words that
live in the *faulty*, voltage-scaled data memory, plus (optionally) side
information that lives in a small always-correct memory at nominal supply
(DREAM's mask memory).  Decoding reverses the transform on possibly
corrupted stored words.

Two implementations are provided for every technique:

* a **vectorised** path (``encode`` / ``decode``) over numpy arrays, used
  by the experiments (millions of words per sweep), and
* a **bit-serial reference** path (``encode_word`` / ``decode_word``)
  written as a direct transcription of the hardware description in the
  paper, used by the test-suite to cross-validate the vectorised path
  (design decision D1 in DESIGN.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .._bitops import bit_mask
from ..errors import EMTError

__all__ = ["DecodeStats", "EMT", "NoProtection"]


@dataclass
class DecodeStats:
    """Counters accumulated by a decoder over one ``decode`` call.

    Attributes:
        words: number of words decoded.
        corrected: words in which the decoder repaired at least one bit.
        detected_uncorrectable: words flagged as erroneous but returned
            unrepaired (e.g. SEC/DED double errors).
    """

    words: int = 0
    corrected: int = 0
    detected_uncorrectable: int = 0

    def merge(self, other: "DecodeStats") -> None:
        """Accumulate another call's counters into this one."""
        self.words += other.words
        self.corrected += other.corrected
        self.detected_uncorrectable += other.detected_uncorrectable


class EMT(ABC):
    """Abstract error-mitigation technique.

    Subclasses define the storage geometry through three quantities:

    * ``data_bits`` — payload width (16 in the paper),
    * ``stored_bits`` — width of the word written to the faulty memory
      (16 for no-protection and DREAM, 22 for SEC/DED),
    * ``side_bits`` — width of the per-word record written to the
      error-free side memory (5 for DREAM, 0 otherwise).

    Clean-word contract: an intact stored word decodes to its payload,
    ``decode(encode(x)) == x``, with zero ``corrected`` and zero
    ``detected_uncorrectable`` in the :class:`DecodeStats`.  The memory
    fabric relies on it to run the codec only on the words that hold a
    fault; every other word reads back as its input.
    """

    #: Registry label, overridden by subclasses.
    name: str = "abstract"

    #: Widest supported payload: stored patterns (and SEC/DED codewords)
    #: are held in int64 arrays, so 32-bit payloads (39-bit codewords)
    #: are the practical ceiling for the vectorised paths.
    MAX_DATA_BITS = 32

    def __init__(self, data_bits: int = 16) -> None:
        if data_bits < 2:
            raise EMTError(f"data_bits must be >= 2, got {data_bits}")
        if data_bits > self.MAX_DATA_BITS:
            raise EMTError(
                f"data_bits must be <= {self.MAX_DATA_BITS}, got {data_bits}"
            )
        self.data_bits = data_bits

    # -- geometry ---------------------------------------------------------

    @property
    @abstractmethod
    def stored_bits(self) -> int:
        """Bits per word stored in the faulty (voltage-scaled) memory."""

    @property
    def side_bits(self) -> int:
        """Bits per word stored in the error-free side memory."""
        return 0

    @property
    def extra_bits(self) -> int:
        """Total protection bits per word (Formula 2 / Section V)."""
        return (self.stored_bits - self.data_bits) + self.side_bits

    # -- vectorised paths -------------------------------------------------

    @abstractmethod
    def encode(
        self, payload: np.ndarray, checked: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Encode payload bit patterns for storage.

        Args:
            payload: ``int64`` array of unsigned ``data_bits`` patterns.
            checked: the caller guarantees the patterns are in range
                (the fabric's ``to_unsigned`` output is by construction),
                skipping the validation scan.

        Returns:
            ``(stored, side)`` — the ``stored_bits`` patterns destined for
            the faulty memory, and the side-memory patterns (``None`` when
            ``side_bits == 0``).
        """

    @abstractmethod
    def decode(
        self,
        stored: np.ndarray,
        side: np.ndarray | None,
        stats: DecodeStats | None = None,
        checked: bool = False,
    ) -> np.ndarray:
        """Decode possibly corrupted stored patterns back to payloads.

        Args:
            stored: corrupted ``stored_bits`` patterns from faulty memory.
            side: side-memory patterns as produced by :meth:`encode`
                (always intact — the side memory runs at nominal supply).
            stats: optional counter object updated in place.
            checked: the caller guarantees the patterns are in range
                (faulty-SRAM cells are by construction), skipping the
                validation scan.

        Returns:
            ``int64`` array of recovered ``data_bits`` payload patterns.
        """

    # -- bit-serial reference paths ---------------------------------------

    @abstractmethod
    def encode_word(self, payload: int) -> tuple[int, int]:
        """Reference scalar encode; returns ``(stored, side)`` integers."""

    @abstractmethod
    def decode_word(self, stored: int, side: int) -> int:
        """Reference scalar decode of one possibly corrupted word."""

    # -- shared validation --------------------------------------------------

    def _check_payload(
        self, payload: np.ndarray, checked: bool = False
    ) -> np.ndarray:
        arr = np.asarray(payload, dtype=np.int64)
        if not checked:
            limit = bit_mask(self.data_bits)
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) > limit):
                raise EMTError(
                    f"payload patterns must be unsigned "
                    f"{self.data_bits}-bit values"
                )
        return arr

    def _check_stored(
        self, stored: np.ndarray, checked: bool = False
    ) -> np.ndarray:
        arr = np.asarray(stored, dtype=np.int64)
        if not checked:
            limit = bit_mask(self.stored_bits)
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) > limit):
                raise EMTError(
                    f"stored patterns must be unsigned "
                    f"{self.stored_bits}-bit values"
                )
        return arr

    def __repr__(self) -> str:
        return f"{type(self).__name__}(data_bits={self.data_bits})"


class NoProtection(EMT):
    """Raw storage with no error mitigation (Fig 4a baseline).

    Encode and decode are identities; every stuck-at fault in the data
    memory reaches the application unchecked.
    """

    name = "none"

    @property
    def stored_bits(self) -> int:
        return self.data_bits

    def encode(
        self, payload: np.ndarray, checked: bool = False
    ) -> tuple[np.ndarray, None]:
        return self._check_payload(payload, checked).copy(), None

    def decode(
        self,
        stored: np.ndarray,
        side: np.ndarray | None,
        stats: DecodeStats | None = None,
        checked: bool = False,
    ) -> np.ndarray:
        arr = self._check_stored(stored, checked).copy()
        if stats is not None:
            stats.words += arr.size
        return arr

    def encode_word(self, payload: int) -> tuple[int, int]:
        if not 0 <= payload <= bit_mask(self.data_bits):
            raise EMTError("payload out of range")
        return payload, 0

    def decode_word(self, stored: int, side: int) -> int:
        if not 0 <= stored <= bit_mask(self.stored_bits):
            raise EMTError("stored word out of range")
        return stored
