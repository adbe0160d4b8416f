"""Bit-accurate faulty SRAM with access accounting.

:class:`FaultySRAM` stores raw bit patterns and applies its
:class:`~repro.mem.faults.FaultMap` on **write**, mirroring the physics of
a stuck-at defect: the cell ignores the written value, so every subsequent
read returns the stuck value.  (Applying the map on write rather than read
is observationally equivalent for reads, but also makes read-after-write
of *uncorrupted* neighbours exact, and keeps repeated reads idempotent.)

Access counters feed the energy model (reads/writes per array) and, when
a trace sink is attached, the MPSoC crossbar simulator.
"""

from __future__ import annotations

import numpy as np

from .._bitops import bit_mask
from ..errors import MemoryModelError
from .faults import FaultMap, empty_fault_map, normalize_slice
from .layout import AddressMap, MemoryGeometry

__all__ = ["FaultySRAM"]


class FaultySRAM:
    """A banked SRAM array with permanent stuck-at defects.

    Args:
        geometry: array organisation (words, width, banks).
        fault_map: permanent defects over *physical* words; defaults to a
            defect-free array.
        address_map: logical-to-physical scrambling; defaults to identity.

    Example:
        >>> import numpy as np
        >>> from repro.mem import FaultySRAM, MemoryGeometry, position_fault_map
        >>> geo = MemoryGeometry(n_words=16, word_bits=16, n_banks=4)
        >>> sram = FaultySRAM(geo, position_fault_map(16, 16, 15, 1))
        >>> sram.write(np.array([0]), np.array([0x0001]))
        >>> hex(int(sram.read(np.array([0]))[0]))
        '0x8001'
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        fault_map: FaultMap | None = None,
        address_map: AddressMap | None = None,
    ) -> None:
        self.geometry = geometry
        if fault_map is None:
            fault_map = empty_fault_map(geometry.n_words, geometry.word_bits)
        if fault_map.n_words != geometry.n_words:
            raise MemoryModelError(
                f"fault map covers {fault_map.n_words} words but the array "
                f"has {geometry.n_words}"
            )
        if fault_map.word_bits != geometry.word_bits:
            raise MemoryModelError(
                f"fault map width {fault_map.word_bits} does not match "
                f"array width {geometry.word_bits}"
            )
        if address_map is not None and address_map.geometry.n_words != geometry.n_words:
            raise MemoryModelError("address map geometry mismatch")
        if address_map is not None and fault_map.live_words is not None:
            # Scrambling sends logical words anywhere in the array,
            # including past the words the bounded map was sampled for.
            raise MemoryModelError(
                "a fault map bounded to its live words cannot take an "
                "address map"
            )
        self.fault_map = fault_map
        self.address_map = address_map
        # A batched map stacks one independent cell array per trial; all
        # trials share addressing, so one write/read pass covers them all.
        # Defective cells hold their stuck value even before first write:
        # on all-zero cells ``(0 | set) & ~clear`` reduces to the set
        # mask itself (set and clear are disjoint), one copy instead of
        # a zero-fill plus a full apply pass.
        self._cells = fault_map.set_mask.copy()
        self.read_count = 0
        self.write_count = 0

    @property
    def n_trials(self) -> int:
        """Stacked Monte-Carlo trials this array simulates (1 = classic)."""
        return self.fault_map.n_trials

    @property
    def is_batched(self) -> bool:
        """Whether the cell array carries a leading trial axis."""
        return self.fault_map.is_batched

    def _physical(
        self, addresses: np.ndarray | slice
    ) -> tuple[np.ndarray | slice, int]:
        """Resolve logical addresses; returns ``(physical, count)``.

        Contiguous ``slice`` addressing (what the fabric's static
        buffers always produce) stays a slice on an unscrambled array —
        downstream cell and mask accesses are then views instead of
        gather copies, the hot-path form of the trial-batched pipeline.
        """
        n_words = self.geometry.n_words
        if isinstance(addresses, slice):
            start, stop = normalize_slice(addresses, n_words)
            if self.address_map is None:
                return slice(start, stop), stop - start
            addresses = np.arange(start, stop)
        addr = np.asarray(addresses, dtype=np.int64)
        if addr.size and (
            int(addr.min()) < 0 or int(addr.max()) >= n_words
        ):
            raise MemoryModelError(
                f"address out of range [0, {n_words})"
            )
        if self.address_map is None:
            return addr, int(addr.size)
        return self.address_map.physical(addr), int(addr.size)

    def write(
        self,
        addresses: np.ndarray | slice,
        patterns: np.ndarray,
        checked: bool = False,
    ) -> None:
        """Store bit patterns; stuck cells retain their stuck values.

        On a batched array ``patterns`` is ``(n_trials, k)`` — or 1-D,
        in which case the same values are written to every trial (the
        first write of a batch, before corruption diverges the trials).
        ``addresses`` may be a contiguous ``slice`` (the fabric's static
        buffers), which skips the per-access gather copies entirely.
        ``checked=True`` marks patterns a caller already guarantees to
        fit the word width (the fabric's EMT-encoded codewords do by
        construction), skipping the per-write min/max scan.
        """
        addr, count = self._physical(addresses)
        values = np.asarray(patterns, dtype=np.int64)
        if self.is_batched:
            if values.ndim == 1:
                values = np.broadcast_to(
                    values, (self.n_trials, values.shape[0])
                )
            expected = (self.n_trials, count)
        else:
            expected = (count,)
        if values.shape != expected:
            raise MemoryModelError(
                f"patterns shape {values.shape} does not match addresses "
                f"shape {expected}"
            )
        if not checked:
            limit = bit_mask(self.geometry.word_bits)
            if values.size and (
                int(values.min()) < 0 or int(values.max()) > limit
            ):
                raise MemoryModelError(
                    f"pattern exceeds the {self.geometry.word_bits}-bit word"
                )
        self._cells[..., addr] = self.fault_map.apply(values, addr)
        self.write_count += int(values.size)

    def write_readback_stacked(
        self, addresses: slice, patterns: np.ndarray
    ) -> np.ndarray:
        """Write-then-read a ``(n_trials, n_windows, k)`` window stack.

        Semantically equivalent to looping ``write(w); read(w)`` over
        the window axis: corruption-on-write means every window reads
        back its applied pattern, and the cells retain the *last*
        window — the end state a sequential loop leaves.  One
        vectorised pass instead of ``2 * n_windows`` calls; access
        counters advance exactly as the loop would advance them.
        Requires a batched, unscrambled array (the caller guards).
        """
        if not self.is_batched or self.address_map is not None:
            raise MemoryModelError(
                "stacked write-readback needs a batched, unscrambled array"
            )
        start, stop = normalize_slice(addresses, self.geometry.n_words)
        corrupted = self.fault_map.apply_stacked(patterns, addresses)
        # Persist the final window: the state a sequential loop leaves.
        self._cells[:, start:stop] = corrupted[:, -1, :]
        self.write_count += int(patterns.size)
        self.read_count += int(patterns.size)
        return corrupted

    def read(
        self, addresses: np.ndarray | slice, copy: bool = True
    ) -> np.ndarray:
        """Read back stored (possibly corrupted) bit patterns.

        Returns ``(n_trials, k)`` on a batched array, ``(k,)`` otherwise.
        ``copy=False`` may return a view of the cell array for sliced
        reads — valid until the next write; the fabric uses it because
        every EMT decoder derives fresh output arrays immediately.
        """
        addr, count = self._physical(addresses)
        self.read_count += count * self.n_trials
        stored = self._cells[..., addr]
        if copy and not stored.flags.owndata:
            return stored.copy()
        return stored

    def reset_counters(self) -> None:
        """Zero the access counters (energy accounting epochs)."""
        self.read_count = 0
        self.write_count = 0

    @property
    def n_faults(self) -> int:
        """Number of stuck bits in the array."""
        return self.fault_map.n_faults
