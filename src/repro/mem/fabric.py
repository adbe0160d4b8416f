"""The memory fabric: how applications touch the faulty data memory.

:class:`MemoryFabric` is the integration point between the biomedical
applications and the reliability machinery.  An application declares
named buffers (static allocation, as embedded firmware would), writes
samples into them and reads them back; every round-trip passes through

    EMT encode -> faulty SRAM write .. read -> EMT decode

with DREAM's side information held in a separate always-correct array
(the nominal-voltage mask memory).  Stuck-at corruption therefore reaches
the application exactly where the paper's platform lets it: in the input,
intermediate and output buffers living in the voltage-scaled memory.

On a batched Monte-Carlo fabric that pipeline runs only where it can
change a word: a word whose fault mask is zero reads back as it was
written under every codec, so a stacked roundtrip encodes, corrupts and
decodes the fault-bearing words alone and copies the rest through
(bit-identical, counters included; see :meth:`MemoryFabric.roundtrip`).

The fabric also keeps the counters the energy model consumes (reads and
writes to the data and mask memories) and an optional access trace for
the MPSoC crossbar simulator.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .._bitops import to_signed, to_unsigned
from ..emt.base import EMT, DecodeStats, NoProtection
from ..errors import MemoryModelError
from .faults import FaultMap
from .layout import PAPER_GEOMETRY, AddressMap, MemoryGeometry
from .sram import FaultySRAM

__all__ = ["BufferHandle", "AccessEvent", "MemoryFabric"]

#: Largest share of a buffer's (trial, address) words that may hold a
#: fault for a stacked roundtrip to run the codec on those words alone;
#: above it every word is encoded, corrupted and decoded, and a map
#: above it as a whole (a Fig 2 position map: every word) never builds
#: its fault sites.  The site-only path pays a full sign-extending copy
#: plus a gather and a scatter per site.  On (40, 2, 1024) stacks it
#: breaks even with the dense path near 25% of the words for ``none``,
#: whose dense path is three vector passes, and near 70-80% for
#: ``dream`` and ``secded`` (2-CPU x86-64, numpy 2.4).  The paper's
#: 0.50-0.90 V grid peaks at 23% (0.50 V, 22 bits) and 17% (16 bits).
_SPARSE_WORD_RATIO = 0.3


@dataclass(frozen=True)
class BufferHandle:
    """A named, statically allocated region of the data memory."""

    name: str
    base: int
    length: int


@dataclass(frozen=True)
class AccessEvent:
    """One batched access, for the crossbar simulator's trace replay."""

    is_write: bool
    base: int
    length: int
    buffer: str


@dataclass
class FabricStats:
    """Aggregate activity counters for one fabric lifetime."""

    data_reads: int = 0
    data_writes: int = 0
    side_reads: int = 0
    side_writes: int = 0
    decode: DecodeStats = field(default_factory=DecodeStats)


class MemoryFabric:
    """Application-facing view of the protected, faulty data memory.

    Args:
        emt: the error-mitigation technique in effect.
        fault_map: permanent defects of the physical array.  Its width
            must equal ``emt.stored_bits`` (use
            :meth:`repro.mem.faults.FaultMap.restricted_to` when sharing
            one defect set across EMTs of different widths, as the paper's
            fair-comparison methodology requires).  ``None`` means a
            defect-free memory.
        geometry: data-memory organisation; defaults to the paper's
            32 kB / 16-bank array, widened to the EMT's stored width.
        address_map: optional logical-to-physical scrambling.
        record_trace: keep an :class:`AccessEvent` list for the MPSoC
            simulator.
        collect_decode_stats: maintain the per-decode correction
            counters in ``stats.decode``.  The Monte-Carlo quality
            drivers only consume SNRs, so they turn this off — the
            counters cost extra passes over every decoded word (SEC/DED
            classifies each word three ways to count them).  A stacked
            roundtrip decodes only fault-bearing words; each clean word
            adds to ``words`` alone, as its decode would.

    Example:
        >>> import numpy as np
        >>> from repro.emt import DreamEMT
        >>> fabric = MemoryFabric(DreamEMT())
        >>> out = fabric.roundtrip("samples", np.array([-5, 123]))
        >>> out.tolist()
        [-5, 123]
    """

    def __init__(
        self,
        emt: EMT,
        fault_map: FaultMap | None = None,
        geometry: MemoryGeometry | None = None,
        address_map: AddressMap | None = None,
        record_trace: bool = False,
        collect_decode_stats: bool = True,
    ) -> None:
        if geometry is None:
            geometry = PAPER_GEOMETRY
        geometry = geometry.with_word_bits(emt.stored_bits)
        if fault_map is not None and fault_map.word_bits != emt.stored_bits:
            raise MemoryModelError(
                f"fault map width {fault_map.word_bits} != EMT stored "
                f"width {emt.stored_bits}; restrict or resample the map"
            )
        self.emt = emt
        self.sram = FaultySRAM(geometry, fault_map, address_map)
        # The mask/side memory runs at nominal supply: plain intact array.
        # For a batched fabric each trial keeps its own side array — side
        # info diverges across trials once corrupted intermediates are
        # re-encoded.
        side_shape = (
            (self.sram.n_trials, geometry.n_words)
            if self.sram.is_batched
            else (geometry.n_words,)
        )
        self._side = (
            np.zeros(side_shape, dtype=np.int64) if emt.side_bits else None
        )
        self._buffers: dict[str, BufferHandle] = {}
        self._next_free = 0
        self.stats = FabricStats()
        self.collect_decode_stats = collect_decode_stats
        self.trace: list[AccessEvent] | None = [] if record_trace else None
        # Buffer base -> end of the raw last window a stacked roundtrip
        # left in the cells (see ``_park``).
        self._pending: dict[int, int] = {}

    @property
    def n_trials(self) -> int:
        """Stacked Monte-Carlo trials this fabric simulates (1 = classic)."""
        return self.sram.n_trials

    @property
    def is_batched(self) -> bool:
        """Whether buffers carry a leading ``(n_trials, ...)`` axis."""
        return self.sram.is_batched

    def trial(self, index: int) -> "MemoryFabric":
        """A fresh single-trial fabric for row ``index`` of a batched map.

        The sequential-fallback path of
        :meth:`repro.apps.base.BiomedicalApp.run_batch` uses this to run
        applications whose control flow cannot be vectorised across
        trials; each returned fabric starts with empty buffers, exactly
        like one iteration of the historical per-trial loop.  Address
        scrambling and stats collection carry over; the access trace
        does not (per-trial traces would be discarded with the
        throwaway fabric).
        """
        return MemoryFabric(
            self.emt,
            fault_map=self.sram.fault_map.trial(index),
            geometry=self.sram.geometry,
            address_map=self.sram.address_map,
            collect_decode_stats=self.collect_decode_stats,
        )

    # -- allocation ---------------------------------------------------------

    def allocate(self, name: str, n_words: int) -> BufferHandle:
        """Reserve ``n_words`` for buffer ``name`` (idempotent by name).

        A fault map sampled only for its first ``live_words`` words
        (:attr:`~repro.mem.faults.FaultMap.live_words`) bounds the
        allocation: a buffer past the bound would read cells a full
        draw could have made faulty, so it raises instead.
        """
        if n_words <= 0:
            raise MemoryModelError(
                f"buffer size must be positive, got {n_words}"
            )
        existing = self._buffers.get(name)
        if existing is not None:
            if existing.length < n_words:
                raise MemoryModelError(
                    f"buffer {name!r} already allocated with "
                    f"{existing.length} words; cannot grow to {n_words}"
                )
            return existing
        if self._next_free + n_words > self.sram.geometry.n_words:
            raise MemoryModelError(
                f"out of data memory allocating {n_words} words for "
                f"{name!r} ({self._next_free} already in use of "
                f"{self.sram.geometry.n_words})"
            )
        live = self.sram.fault_map.live_words
        if live is not None and self._next_free + n_words > live:
            raise MemoryModelError(
                f"buffer {name!r} would end at word "
                f"{self._next_free + n_words}, past the {live} words its "
                f"fault map was sampled for; sample the map with a larger "
                f"live_words (or none)"
            )
        handle = BufferHandle(name=name, base=self._next_free, length=n_words)
        self._buffers[name] = handle
        self._next_free += n_words
        return handle

    @property
    def words_allocated(self) -> int:
        """Words currently reserved by named buffers."""
        return self._next_free

    def buffer(self, name: str) -> BufferHandle:
        """Look up an allocated buffer by name."""
        if name not in self._buffers:
            raise MemoryModelError(f"buffer {name!r} was never allocated")
        return self._buffers[name]

    # -- data movement ------------------------------------------------------

    def write(self, handle: BufferHandle, values: np.ndarray) -> None:
        """Encode signed values and store them at the buffer's base.

        On a batched fabric ``values`` may be ``(n_trials, k)`` — one
        row per trial — or 1-D, in which case the same words are written
        to every trial (encoded once and broadcast, since the EMTs are
        deterministic per word).
        """
        signed = np.asarray(values, dtype=np.int64)
        if signed.ndim == 2 and not self.is_batched:
            raise MemoryModelError(
                "2-D writes require a batched fabric (stacked fault map)"
            )
        if signed.ndim == 2 and signed.shape[0] != self.n_trials:
            raise MemoryModelError(
                f"writing {signed.shape[0]} trial rows into a "
                f"{self.n_trials}-trial fabric"
            )
        if signed.ndim not in (1, 2):
            raise MemoryModelError(
                "fabric buffers are one-dimensional (per trial)"
            )
        n_words = int(signed.shape[-1])
        if n_words > handle.length:
            raise MemoryModelError(
                f"writing {n_words} words into {handle.length}-word "
                f"buffer {handle.name!r}"
            )
        # ``to_unsigned`` masks to ``data_bits``, so the codec's range
        # scan is redundant here.
        self._settle()
        payload = to_unsigned(signed, self.emt.data_bits)
        stored, side = self.emt.encode(payload, checked=True)
        # Static buffers are contiguous: slice addressing lets the SRAM
        # and fault masks work on views instead of gather copies.  The
        # EMT's codewords fit the array width by construction, so the
        # per-write range scan is skipped.
        addresses = slice(handle.base, handle.base + n_words)
        self.sram.write(addresses, stored, checked=True)
        self.stats.data_writes += n_words * self.n_trials
        if side is not None:
            if self._side is None:  # pragma: no cover - guarded by side_bits
                raise MemoryModelError("EMT produced side info unexpectedly")
            self._side[..., addresses] = side
            self.stats.side_writes += n_words * self.n_trials
        if self.trace is not None:
            self.trace.append(
                AccessEvent(True, handle.base, n_words, handle.name)
            )

    def read(self, handle: BufferHandle, n_words: int | None = None) -> np.ndarray:
        """Load, decode and sign-extend the buffer's first ``n_words``.

        Returns ``(n_trials, n_words)`` on a batched fabric — the whole
        Monte-Carlo batch decoded in one vectorised pass.
        """
        count = handle.length if n_words is None else n_words
        if not 0 < count <= handle.length:
            raise MemoryModelError(
                f"cannot read {count} words from {handle.length}-word "
                f"buffer {handle.name!r}"
            )
        self._settle()
        addresses = slice(handle.base, handle.base + count)
        # View read: every EMT decoder derives fresh arrays before the
        # fabric hands anything to the application, so the cells are
        # never exposed to mutation.
        stored = self.sram.read(addresses, copy=False)
        self.stats.data_reads += count * self.n_trials
        side = None
        if self._side is not None:
            side = self._side[..., addresses]
            self.stats.side_reads += count * self.n_trials
        # Cells only ever hold ``word_bits`` patterns, so the codec's
        # range scan is redundant here.
        payload = self.emt.decode(
            stored,
            side,
            self.stats.decode if self.collect_decode_stats else None,
            checked=True,
        )
        if self.trace is not None:
            self.trace.append(
                AccessEvent(False, handle.base, count, handle.name)
            )
        return to_signed(payload, self.emt.data_bits)

    @property
    def window_stacking(self) -> bool:
        """Whether applications may fold their window loop into the batch.

        On a batched fabric each :meth:`roundtrip` is a pure
        write-then-read of the same addresses, so successive processing
        windows are independent and can ride through the pipeline as an
        extra ``(n_trials, n_windows, k)`` axis — the corruption every
        window sees is the per-address stuck-at mask, which does not
        depend on what a previous window stored.  Disabled when an
        access trace is recorded (the trace must keep its per-window
        event granularity) or the address space is scrambled (the fast
        path indexes fault masks by logical address).
        """
        return (
            self.is_batched
            and self.trace is None
            and self.sram.address_map is None
        )

    def roundtrip(self, name: str, values: np.ndarray) -> np.ndarray:
        """Write ``values`` to buffer ``name`` and read them straight back.

        The idiom applications use at every pipeline-stage boundary: the
        stage's result is parked in the faulty memory and whatever
        survives is what the next stage computes on.  Buffer sizing uses
        the per-trial word count, so batched and single-trial runs share
        one static allocation layout (identical addresses — a
        precondition for bit-identical corruption).

        On a :attr:`window_stacking` fabric every roundtrip takes the
        window-stacked path: 3-D ``(n_trials | 1, n_windows, k)`` values
        round-trip every window of every trial in one vectorised pass,
        and 1-D and 2-D values ride it as a single window — bit-identical
        to looping the windows through :meth:`write` / :meth:`read` one
        at a time.
        """
        signed = np.asarray(values, dtype=np.int64)
        n_words = int(signed.shape[-1]) if signed.ndim else 0
        handle = self.allocate(name, max(n_words, 1))
        if signed.ndim == 3:
            return self._roundtrip_stacked(handle, signed)
        if (
            self.window_stacking
            and n_words
            and (signed.ndim == 1 or signed.shape[0] == self.n_trials)
        ):
            window = signed.reshape(-1, 1, n_words)
            return self._roundtrip_stacked(
                handle, window, as_write_read=True
            ).reshape(self.n_trials, n_words)
        self.write(handle, signed)
        return self.read(handle, n_words)

    def _roundtrip_stacked(
        self,
        handle: BufferHandle,
        signed: np.ndarray,
        as_write_read: bool = False,
    ) -> np.ndarray:
        """Window-stacked roundtrip: ``(n_trials, n_windows, k)`` at once.

        Semantically equivalent to looping ``write(w); read(w)`` over
        the window axis: corruption-on-write means every window reads
        back ``decode(apply(encode(window)))``, and the cells (and side
        memory) are left holding the *last* window — the sequential end
        state, written lazily (see :meth:`_park`).

        A word whose mask is zero reads back unchanged under every
        codec (the :class:`~repro.emt.base.EMT` clean-word contract),
        so while at most :data:`_SPARSE_WORD_RATIO` of the buffer's
        (trial, address) words hold a fault, only those words are
        encoded, corrupted and decoded, across every window; every
        other word is its input, sign-extended.  Counters advance as
        the window loop would advance them; ``as_write_read`` counts
        side reads as :meth:`read` does, whenever side memory exists,
        where a stack counts them only when the codec emits side words
        (the two differ for a :class:`~repro.emt.hybrid.HybridEMT` whose
        active member keeps no side information).
        """
        if not self.window_stacking:
            raise MemoryModelError(
                "window-stacked roundtrips need a batched, untraced fabric"
            )
        n_trials = self.n_trials
        if signed.shape[0] not in (1, n_trials):
            raise MemoryModelError(
                f"window stack carries {signed.shape[0]} trial rows for a "
                f"{n_trials}-trial fabric"
            )
        n_windows, n_words = int(signed.shape[1]), int(signed.shape[2])
        if n_words > handle.length:
            raise MemoryModelError(
                f"writing {n_words} words into {handle.length}-word "
                f"buffer {handle.name!r}"
            )
        base, stop = handle.base, handle.base + n_words
        shape = (n_trials, n_windows, n_words)
        count = n_trials * n_windows * n_words
        fault_map = self.sram.fault_map
        sparse = fault_map.faulty_share() <= _SPARSE_WORD_RATIO
        if sparse:
            address, trial, set_bits, inv_clear = fault_map.fault_sites()
            # Bounds in the sites' own dtype, or searchsorted casts them.
            lo, hi = address.searchsorted(
                np.array((base, stop), dtype=address.dtype)
            )
            sparse = hi - lo <= _SPARSE_WORD_RATIO * n_trials * n_words
        if not sparse:
            out, emits_side = self._coded(
                signed,
                lambda stored: self.sram.write_readback_stacked(
                    slice(base, stop), np.broadcast_to(stored, shape)
                ),
            )
        else:
            sites = slice(lo, hi)
            rows, columns = trial[sites], address[sites] - base
            # A clean word decodes to exactly its sign-extended input.
            out = to_signed(signed, self.emt.data_bits)
            if out.shape != shape:
                out = np.broadcast_to(out, shape).copy()
            out = np.ascontiguousarray(out)
            # Flat offsets of every window of each fault site: an
            # (n_windows, m) block, contiguous along the sites.
            windows = np.arange(n_windows)[:, None] * n_words
            at = rows * np.int64(n_windows * n_words) + columns + windows
            source = at if signed.shape[0] == n_trials else columns + windows
            coded, emits_side = self._coded(
                signed.reshape(-1).take(source),
                lambda stored: FaultMap._corrupt(
                    stored, set_bits[sites], inv_clear[sites]
                ),
            )
            out.reshape(-1)[at] = coded
            if self.collect_decode_stats:
                # Clean words decode with nothing to count but themselves.
                self.stats.decode.words += count - coded.size
            self.sram.write_count += count
            self.sram.read_count += count
        self.stats.data_writes += count
        self.stats.data_reads += count
        if emits_side:
            self.stats.side_writes += count
        if emits_side or (as_write_read and self._side is not None):
            self.stats.side_reads += count
        self._park(base, stop, signed[:, -1, :])
        return out

    def _coded(
        self,
        signed: np.ndarray,
        corrupt: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, bool]:
        """``decode(corrupt(encode(signed)))``, sign-extended.

        ``corrupt`` may broadcast: a window stack shared by every trial
        is encoded once.  Returns the words and whether the codec
        produced side information; decode statistics accrue to
        ``stats.decode``.
        """
        payload = to_unsigned(signed, self.emt.data_bits)
        # NoProtection's encode/decode are identities (modulo defensive
        # copies); short-circuiting them saves two whole-batch copies
        # per roundtrip on the unprotected third of every sweep.
        identity = type(self.emt) is NoProtection
        if identity:
            stored, side = payload, None
        else:
            stored, side = self.emt.encode(payload, checked=True)
        corrupted = corrupt(stored)
        if side is not None:
            side = np.broadcast_to(side, corrupted.shape)
        stats = self.stats.decode if self.collect_decode_stats else None
        if identity:
            if stats is not None:
                stats.words += corrupted.size
            decoded = corrupted
        else:
            decoded = self.emt.decode(corrupted, side, stats, checked=True)
        return to_signed(decoded, self.emt.data_bits), side is not None

    # -- deferred end state ------------------------------------------------

    def _park(self, start: int, stop: int, last: np.ndarray) -> None:
        """Leave the raw last window in the cells, encoded on demand.

        A stacked roundtrip must leave the cells and side memory holding
        its last window, but only a later :meth:`write` or :meth:`read`
        can observe them, so the window's signed values are stored in
        place and their address range marked pending; :meth:`_settle`
        encodes and corrupts them when first needed.  A shorter
        roundtrip to a still-pending buffer rewrites only its own
        prefix, so the pending range widens to cover both.  The window
        is encoded with the codec in effect when it settles: a
        :class:`~repro.emt.hybrid.HybridEMT` switched in between encodes
        it with its new member.
        """
        self.sram._cells[:, start:stop] = last
        self._pending[start] = max(stop, self._pending.get(start, stop))

    def _settle(self) -> None:
        """Encode every pending range in place: the sequential end state."""
        cells = self.sram._cells
        for start, stop in self._pending.items():
            addresses = slice(start, stop)
            payload = to_unsigned(cells[:, addresses], self.emt.data_bits)
            stored, side = self.emt.encode(payload, checked=True)
            cells[:, addresses] = self.sram.fault_map.apply(stored, addresses)
            if side is not None:
                self._side[:, addresses] = side
        self._pending.clear()
