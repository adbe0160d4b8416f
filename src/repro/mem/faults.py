"""Stuck-at fault maps for the voltage-scaled data memory.

The paper's error model (Section V): "Data corruption is caused by
permanent errors that occur at random positions and set the affected
memory bits to '1' or '0'."  A :class:`FaultMap` captures one such set of
permanent defects as two per-word bit masks — bits stuck at one and bits
stuck at zero — which makes applying the corruption to a whole buffer two
vectorised bitwise operations (design decision D1).

Maps come in two shapes:

* **1-D** ``(n_words,)`` masks describe one physical array — the classic
  single-trial form;
* **2-D** ``(n_trials, n_words)`` masks stack one independent defect
  sample per Monte-Carlo trial, so an entire batch of trials flows
  through the memory fabric in single numpy passes (the trial-batched
  hot path; see PERFORMANCE.md).

Two constructors cover the paper's two methodologies:

* :func:`sample_fault_map` — independent per-bit failures at a given BER,
  each stuck value drawn uniformly (Fig 4's Monte-Carlo runs);
* :func:`position_fault_map` — every word's bit ``k`` stuck at a chosen
  value (Fig 2's per-bit significance sweep);

plus their trial-batched counterparts :func:`sample_fault_map_batch`
(bit-identical to ``n_trials`` sequential :func:`sample_fault_map` draws
from the same generator — the stacked draw consumes the stream in the
exact per-trial order) and :func:`position_fault_map_batch` (one trial
per (position, stuck value) configuration).

The batched sampler does only the work that can change a mask: where a
trial's failed cells are few, it reads the stuck-value uniforms at those
cells alone and skips the rest of the PCG64 stream with
``advance`` — the same doubles, the same end state, a fraction of the
draws.  Given the words an application's buffers occupy
(``live_words``), it draws both blocks for those words only and skips
the rest of each block the same way; the map then records the bound,
and a fabric refuses to allocate past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .._bitops import bit_mask, popcount
from ..errors import MemoryModelError

#: Largest share of a trial's bits that may fail for the stuck values to
#: be read site by site; above it the whole stuck-value block is drawn.
#: Skipping to a site costs ~2 us; drawing, comparing and packing a dense
#: block ~5-6 ns per bit.  At the paper's 16,384 x 22 bits the two break
#: even near 1,250 sites (2-CPU x86-64, numpy 2.4); 0.3% (~1,080 sites)
#: keeps to the side where skipping still wins.
_SPARSE_STUCK_RATIO = 0.003

__all__ = [
    "FaultMap",
    "empty_fault_map",
    "sample_fault_map",
    "sample_fault_map_batch",
    "position_fault_map",
    "position_fault_map_batch",
]


def normalize_slice(indices: slice, n_words: int) -> tuple[int, int]:
    """Validate a contiguous forward slice against an array of words.

    The memory layers (fault masks and the SRAM) address static buffers
    with plain slices; both validate through this single helper so they
    can never disagree on which slices are legal.  Returns
    ``(start, stop)``.
    """
    start = indices.start or 0
    stop = n_words if indices.stop is None else indices.stop
    if (
        indices.step not in (None, 1)
        or start < 0
        or stop > n_words
        or start > stop
    ):
        raise MemoryModelError(
            f"slice {indices} is not a forward range inside [0, {n_words}]"
        )
    return start, stop


@dataclass(frozen=True)
class FaultMap:
    """Permanent stuck-at defects of one physical memory array.

    Attributes:
        word_bits: width of each word the map covers.
        set_mask: per-word mask of bits stuck at '1' — ``(n_words,)`` for
            a single trial, ``(n_trials, n_words)`` for a stacked batch
            of independent defect samples.
        clear_mask: per-word mask of bits stuck at '0' (same shape).
        live_words: ``None`` for a map sampled over the whole array;
            otherwise the map was sampled only for words
            ``[0, live_words)`` and its masks are zero beyond them,
            where a full draw could have placed faults.  A
            :class:`~repro.mem.fabric.MemoryFabric` refuses to allocate
            a buffer past the bound, so a bounded map can never stand
            in silently for a full one.

    A bit cannot be stuck at both values; the constructor rejects
    overlapping masks.
    """

    word_bits: int
    set_mask: np.ndarray
    clear_mask: np.ndarray
    live_words: int | None = None

    @classmethod
    def _trusted(
        cls,
        word_bits: int,
        set_mask: np.ndarray,
        clear_mask: np.ndarray,
        live_words: int | None = None,
    ) -> "FaultMap":
        """Construct without re-validating provably well-formed masks.

        The module's own constructors (sampling, position maps, trial
        slicing, width restriction) build masks that are disjoint and
        in-range *by construction*; skipping ``__post_init__``'s full
        min/max/overlap scans there removes several whole-array passes
        from the batched hot path.  External callers must use the
        public constructor.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "word_bits", word_bits)
        object.__setattr__(self, "set_mask", set_mask)
        object.__setattr__(self, "clear_mask", clear_mask)
        object.__setattr__(self, "live_words", live_words)
        return self

    def __post_init__(self) -> None:
        if self.word_bits < 1:
            raise MemoryModelError(
                f"word_bits must be positive, got {self.word_bits}"
            )
        set_arr = np.asarray(self.set_mask, dtype=np.int64)
        clear_arr = np.asarray(self.clear_mask, dtype=np.int64)
        if set_arr.shape != clear_arr.shape:
            raise MemoryModelError(
                f"mask shapes differ: {set_arr.shape} vs {clear_arr.shape}"
            )
        if set_arr.ndim not in (1, 2):
            raise MemoryModelError(
                f"masks must be 1-D (n_words,) or 2-D (n_trials, n_words), "
                f"got shape {set_arr.shape}"
            )
        if set_arr.ndim == 2 and set_arr.shape[0] < 1:
            raise MemoryModelError("a batched map needs at least one trial")
        limit = bit_mask(self.word_bits)
        for name, arr in (("set_mask", set_arr), ("clear_mask", clear_arr)):
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) > limit):
                raise MemoryModelError(
                    f"{name} exceeds the {self.word_bits}-bit word width"
                )
        if np.any(np.bitwise_and(set_arr, clear_arr)):
            raise MemoryModelError(
                "a bit cannot be stuck at both '0' and '1'"
            )
        live = self.live_words
        if live is not None:
            if not 0 <= live <= set_arr.shape[-1]:
                raise MemoryModelError(
                    f"live_words {live} outside [0, {set_arr.shape[-1]}]"
                )
            if np.any(set_arr[..., live:]) or np.any(clear_arr[..., live:]):
                raise MemoryModelError(
                    f"a map bounded to {live} live words holds faults "
                    f"beyond them"
                )
        object.__setattr__(self, "set_mask", set_arr)
        object.__setattr__(self, "clear_mask", clear_arr)

    @property
    def n_words(self) -> int:
        """Number of words covered by this map (per trial when batched)."""
        return int(self.set_mask.shape[-1])

    @property
    def n_trials(self) -> int:
        """Number of stacked trials (1 for a classic single-trial map)."""
        return int(self.set_mask.shape[0]) if self.set_mask.ndim == 2 else 1

    @property
    def is_batched(self) -> bool:
        """Whether the masks carry a leading trial axis."""
        return self.set_mask.ndim == 2

    def trial(self, index: int) -> "FaultMap":
        """The single-trial map of one row of a batched map.

        For a 1-D map only ``index == 0`` is valid and the map itself is
        returned (the sequential fallback path uses this uniformly).
        """
        if not self.is_batched:
            if index != 0:
                raise MemoryModelError(
                    f"single-trial map has no trial {index}"
                )
            return self
        if not 0 <= index < self.n_trials:
            raise MemoryModelError(
                f"trial index {index} outside [0, {self.n_trials})"
            )
        return FaultMap._trusted(
            self.word_bits,
            self.set_mask[index],
            self.clear_mask[index],
            self.live_words,
        )

    @property
    def n_faults(self) -> int:
        """Total number of stuck bits in the array (all trials)."""
        return int(
            popcount(self.set_mask).sum() + popcount(self.clear_mask).sum()
        )

    def _inv_clear(self) -> np.ndarray:
        """``~clear_mask``, computed once and cached.

        Every :meth:`apply` needs the complement; caching it halves the
        mask traffic of a pipeline that round-trips dozens of buffers
        through the same map.
        """
        cached = getattr(self, "_inv_clear_cache", None)
        if cached is None:
            cached = ~self.clear_mask
            object.__setattr__(self, "_inv_clear_cache", cached)
        return cached

    def _faulty_words(self) -> np.ndarray:
        """``(n_trials, n_words)`` booleans: which masks are non-zero."""
        faulty = np.atleast_2d(self.set_mask) != 0
        faulty |= np.atleast_2d(self.clear_mask) != 0
        return faulty

    def faulty_share(self) -> float:
        """Share of the (trial, address) words holding a fault, cached.

        Read off the cached :meth:`fault_sites` when they exist, so a
        map too faulty for them to pay never has to build them.
        """
        cached = getattr(self, "_faulty_share_cache", None)
        if cached is None:
            sites = getattr(self, "_fault_sites_cache", None)
            faulty = (
                sites[0].size
                if sites is not None
                else np.count_nonzero(self._faulty_words())
            )
            cached = faulty / max(self.set_mask.size, 1)
            object.__setattr__(self, "_faulty_share_cache", cached)
        return cached

    def fault_sites(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every word with a non-zero mask, sorted by address, cached.

        Returns ``(address, trial, set, inv_clear)``: the site's word
        address and trial row (0 for a single-trial map), as ``int32``,
        and its ``set_mask`` and ``~clear_mask`` words, ordered by
        address and, within one address, by trial.  The fabric picks a
        buffer's sites with one ``searchsorted`` on ``address``;
        computing them once per map keeps ``nonzero`` off every
        roundtrip.
        """
        cached = getattr(self, "_fault_sites_cache", None)
        if cached is None:
            set_mask = np.atleast_2d(self.set_mask)
            clear_mask = np.atleast_2d(self.clear_mask)
            # The transpose makes nonzero's C order address-major.
            address, trial = np.nonzero(self._faulty_words().T)
            cached = (
                address.astype(np.int32),
                trial.astype(np.int32),
                set_mask[trial, address],
                ~clear_mask[trial, address],
            )
            object.__setattr__(self, "_fault_sites_cache", cached)
        return cached

    def apply(
        self,
        words: np.ndarray,
        indices: np.ndarray | slice | None = None,
    ) -> np.ndarray:
        """Corrupt stored bit patterns as the defective cells would.

        Args:
            words: bit patterns being read back.  For a batched map,
                shape ``(n_trials, k)`` — row ``t`` is corrupted by
                trial ``t``'s defects.
            indices: physical word indices each element maps to — an
                index vector, or a ``slice`` for the contiguous ranges
                the fabric's static buffers always produce (a view, no
                gather copy: the hot-path form).  For a batched map the
                same addresses are touched in every trial.  When
                omitted, ``words`` must cover the full array (all
                trials) in order.

        Returns:
            ``(words | set_mask) & ~clear_mask`` element-wise.
        """
        arr = np.asarray(words, dtype=np.int64)
        inv_clear = self._inv_clear()
        if indices is None:
            if arr.shape != self.set_mask.shape:
                raise MemoryModelError(
                    f"expected full-array shape {self.set_mask.shape}, "
                    f"got {arr.shape}"
                )
            set_mask, inv = self.set_mask, inv_clear
        elif isinstance(indices, slice):
            start, stop = normalize_slice(indices, self.n_words)
            count = stop - start
            expected = (
                (self.n_trials, count) if self.is_batched else (count,)
            )
            if expected != arr.shape:
                raise MemoryModelError(
                    f"slice of {count} words does not match words "
                    f"shape {arr.shape}"
                )
            set_mask = self.set_mask[..., indices]
            inv = inv_clear[..., indices]
        else:
            idx = np.asarray(indices, dtype=np.int64)
            if self.is_batched and idx.ndim != 1:
                raise MemoryModelError(
                    "batched maps take a 1-D index vector (the same "
                    "addresses are touched in every trial)"
                )
            expected = (
                (self.n_trials, idx.shape[-1]) if self.is_batched else idx.shape
            )
            if expected != arr.shape:
                raise MemoryModelError(
                    f"indices shape {idx.shape} does not match words "
                    f"shape {arr.shape}"
                )
            if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self.n_words):
                raise MemoryModelError("physical index out of range")
            set_mask = self.set_mask[..., idx]
            inv = inv_clear[..., idx]
        return self._corrupt(arr, set_mask, inv)

    @staticmethod
    def _corrupt(
        words: np.ndarray, set_mask: np.ndarray, inv_clear: np.ndarray
    ) -> np.ndarray:
        """The stuck-at rule, ``(words | set) & ~clear``, in one place."""
        out = np.bitwise_or(words, set_mask)
        np.bitwise_and(out, inv_clear, out=out)
        return out

    def apply_stacked(self, words: np.ndarray, indices: slice) -> np.ndarray:
        """Corrupt a ``(n_trials, n_windows, k)`` window stack.

        Every window of trial ``t`` sees trial ``t``'s defects at the
        sliced addresses — the window-stacked hot path of the batched
        fabric.  Same stuck-at rule as :meth:`apply`, with the masks
        broadcast across the window axis.
        """
        if not self.is_batched:
            raise MemoryModelError(
                "stacked application requires a batched (2-D) map"
            )
        arr = np.asarray(words, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[0] != self.n_trials:
            raise MemoryModelError(
                f"expected ({self.n_trials}, n_windows, k) words, "
                f"got shape {arr.shape}"
            )
        start, stop = normalize_slice(indices, self.n_words)
        if arr.shape[-1] != stop - start:
            raise MemoryModelError(
                f"words cover {arr.shape[-1]} columns but the slice "
                f"spans {stop - start}"
            )
        return self._corrupt(
            arr,
            self.set_mask[:, None, start:stop],
            self._inv_clear()[:, None, start:stop],
        )

    def restricted_to(self, word_bits: int) -> "FaultMap":
        """Project the map onto a narrower word (drop faults above it).

        Used when a hybrid system provisions the memory for the widest
        EMT but a narrower technique only occupies the low columns.
        """
        if word_bits < 1:
            raise MemoryModelError(
                f"word_bits must be positive, got {word_bits}"
            )
        if word_bits > self.word_bits:
            raise MemoryModelError(
                f"cannot widen a fault map from {self.word_bits} to {word_bits} bits"
            )
        keep = bit_mask(word_bits)
        return FaultMap._trusted(
            word_bits,
            np.bitwise_and(self.set_mask, keep),
            np.bitwise_and(self.clear_mask, keep),
            self.live_words,
        )

    def restricted_trials(self, rows: np.ndarray, word_bits: int) -> "FaultMap":
        """Rows ``rows`` of a batched map, restricted to ``word_bits``.

        Equal to ``restricted_to(word_bits)`` followed by taking the
        rows, but the rows are gathered once and restricted in place, so
        no full-size restricted copy is ever held beside them.  When
        ``rows`` ascend without repeats (as ``np.unique`` returns them),
        the result's :meth:`fault_sites` are derived from this map's,
        masked to the kept columns, instead of rescanning its masks.
        Every row at full width is the map itself, shared, not copied.
        """
        if not self.is_batched:
            raise MemoryModelError("trial rows require a batched (2-D) map")
        if not 1 <= word_bits <= self.word_bits:
            raise MemoryModelError(
                f"cannot restrict a {self.word_bits}-bit fault map to "
                f"{word_bits} bits"
            )
        rows = np.asarray(rows, dtype=np.int64)
        if word_bits == self.word_bits and np.array_equal(
            rows, np.arange(self.n_trials)
        ):
            return self
        keep = np.int64(bit_mask(word_bits))
        set_rows = self.set_mask[rows]
        clear_rows = self.clear_mask[rows]
        np.bitwise_and(set_rows, keep, out=set_rows)
        np.bitwise_and(clear_rows, keep, out=clear_rows)
        restricted = FaultMap._trusted(
            word_bits, set_rows, clear_rows, self.live_words
        )
        if rows.size and np.all(rows[1:] > rows[:-1]):
            address, trial, set_bits, inv_clear = self.fault_sites()
            set_bits = set_bits & keep
            clear_bits = ~inv_clear & keep
            # Old trial -> new row, -1 for a trial not taken.
            row_of = np.full(self.n_trials, -1, dtype=np.int32)
            row_of[rows] = np.arange(rows.size)
            row = row_of[trial]
            hit = np.flatnonzero(((set_bits | clear_bits) != 0) & (row >= 0))
            object.__setattr__(
                restricted,
                "_fault_sites_cache",
                (
                    address[hit],
                    row[hit],
                    set_bits[hit],
                    ~clear_bits[hit],
                ),
            )
        return restricted

    def restricted_to_words(self, start: int, length: int) -> "FaultMap":
        """Keep only the faults inside the word range [start, start+length).

        Used by the buffer-sensitivity analysis: combined with the
        fabric's static allocation it confines injection to one named
        buffer (e.g. "faults in the input buffer only").
        """
        if not 0 <= start <= self.n_words:
            raise MemoryModelError(
                f"range start {start} outside [0, {self.n_words}]"
            )
        if length < 0 or start + length > self.n_words:
            raise MemoryModelError(
                f"range [{start}, {start + length}) exceeds the "
                f"{self.n_words}-word array"
            )
        inside = np.zeros(self.n_words, dtype=bool)
        inside[start : start + length] = True
        return FaultMap._trusted(
            self.word_bits,
            np.where(inside, self.set_mask, 0),
            np.where(inside, self.clear_mask, 0),
            self.live_words,
        )


def empty_fault_map(n_words: int, word_bits: int) -> FaultMap:
    """A defect-free array (nominal supply voltage)."""
    if word_bits < 1:
        raise MemoryModelError(f"word_bits must be positive, got {word_bits}")
    if n_words < 0:
        raise MemoryModelError(f"n_words must be non-negative, got {n_words}")
    zeros = np.zeros(n_words, dtype=np.int64)
    return FaultMap._trusted(word_bits, zeros, zeros.copy())


def sample_fault_map(
    n_words: int,
    word_bits: int,
    ber: float,
    rng: np.random.Generator,
) -> FaultMap:
    """Draw one Monte-Carlo fault map at bit error rate ``ber``.

    Every bit cell fails independently with probability ``ber``; each
    failed cell is stuck at '1' or '0' with equal probability — the
    paper's Section V error model.
    """
    if word_bits < 1:
        raise MemoryModelError(f"word_bits must be positive, got {word_bits}")
    if not 0.0 <= ber <= 1.0:
        raise MemoryModelError(f"BER must be in [0, 1], got {ber}")
    if n_words < 0:
        raise MemoryModelError(f"n_words must be non-negative, got {n_words}")
    if ber == 0.0 or n_words == 0:
        return empty_fault_map(n_words, word_bits)

    failed = rng.random((n_words, word_bits)) < ber
    stuck_high = rng.random((n_words, word_bits)) < 0.5
    set_mask, clear_mask = _pack_masks(failed, stuck_high)
    return FaultMap._trusted(word_bits, set_mask, clear_mask)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., word_bits)`` boolean array into int64 bit masks.

    ``np.packbits`` with little-endian bit order makes byte ``c`` of
    word ``i`` exactly ``bits[i, 8c:8c+8]`` — one C pass over the
    boolean block — and the bytes then assemble into int64 words with a
    shift-or per byte column.  Bit ``j`` of the result equals
    ``bits[..., j]``, the same mapping the historical
    ``np.where(weights).sum(axis)`` reduction produced.
    """
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = packed[..., 0].astype(np.int64)
    for column in range(1, packed.shape[-1]):
        out |= packed[..., column].astype(np.int64) << np.int64(8 * column)
    return out


def _pack_masks(
    failed: np.ndarray, stuck_high: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-bit failure booleans into per-word set/clear masks.

    A failed cell is stuck high where ``stuck_high`` holds, stuck low
    otherwise: ``clear = failed - set`` avoids packing a third boolean
    block.  Mask packing was the single largest line of the Monte-Carlo
    sampling profile; this form is bit-identical to the historical
    weighted ``np.where(...).sum(axis)`` reduction at a fraction of its
    cost.
    """
    set_mask = _pack_bits(failed & stuck_high)
    failed_mask = _pack_bits(failed)
    return set_mask, failed_mask - set_mask


def sample_fault_map_batch(
    n_trials: int,
    n_words: int,
    word_bits: int,
    ber: float,
    rng: np.random.Generator,
    *,
    live_words: int | None = None,
) -> FaultMap:
    """Draw ``n_trials`` Monte-Carlo fault maps as one stacked batch.

    Bit-identical to ``n_trials`` sequential :func:`sample_fault_map`
    calls on the same generator: each sequential call consumes two
    ``(n_words, word_bits)`` uniform blocks (failure sites, then stuck
    values), and the batch consumes the same blocks in the same
    per-trial order — so trial ``t`` sees the very doubles the ``t``-th
    sequential call would have seen, and the generator ends in the same
    state (property-tested).

    For a ``PCG64`` generator the stream is skipped wherever its doubles
    cannot change a mask that will be read (a PCG64 double consumes one
    64-bit output, so ``advance(k)`` skips ``k`` uniforms):

    * ``live_words`` bounds both blocks to words ``[0, live_words)``:
      their uniforms are drawn and the rest of each block is advanced
      past, so every mask beyond the bound is zero and the returned map
      records the bound (see :attr:`FaultMap.live_words`).  Callers pass
      the words their application's buffers occupy.
    * A trial whose failed cells are at most :data:`_SPARSE_STUCK_RATIO`
      of its live bits reads its stuck values only at those cells.

    Any other generator draws every block in full and ignores the bound.
    """
    if n_trials < 1:
        raise MemoryModelError(f"n_trials must be >= 1, got {n_trials}")
    if word_bits < 1:
        raise MemoryModelError(f"word_bits must be positive, got {word_bits}")
    if not 0.0 <= ber <= 1.0:
        raise MemoryModelError(f"BER must be in [0, 1], got {ber}")
    if n_words < 0:
        raise MemoryModelError(f"n_words must be non-negative, got {n_words}")
    if live_words is not None and live_words < 0:
        raise MemoryModelError(
            f"live_words must be non-negative, got {live_words}"
        )
    bit_generator = rng.bit_generator
    skips = type(bit_generator) is np.random.PCG64
    bound = (
        min(live_words, n_words) if skips and live_words is not None else None
    )
    if ber == 0.0 or n_words == 0:
        # Sequential draws at BER 0 consume no randomness; neither may we.
        zeros = np.zeros((n_trials, n_words), dtype=np.int64)
        return FaultMap._trusted(word_bits, zeros, zeros.copy(), bound)

    live = n_words if bound is None else bound
    n_bits, live_bits = n_words * word_bits, live * word_bits
    dead_bits = n_bits - live_bits
    # Only PCG64 can skip; a trial above the limit draws its whole block.
    sparse_limit = int(_SPARSE_STUCK_RATIO * live_bits) if skips else -1
    # Skipping ahead clears PCG64's buffered 32-bit half; the dense draw
    # never touches it, so it is put back once the batch is drawn.
    pending_half = bit_generator.state if skips else None
    set_mask = np.zeros((n_trials, n_words), dtype=np.int64)
    clear_mask = np.zeros((n_trials, n_words), dtype=np.int64)
    # Draw per trial, block by block, into one reused buffer: one block
    # (~2.9 MB at the paper's geometry) stays cache-resident, where a
    # monolithic (n_trials, 2, n_words, word_bits) request would hold
    # >1 GB for a 200-run batch and thrash every level of cache.  The
    # stream is unchanged — numpy fills requests C-order, so per-trial
    # draws consume exactly the doubles the sequential loop consumed.
    uniforms = np.empty((live, word_bits))
    failed = np.empty((live, word_bits), dtype=bool)
    for trial in range(n_trials):
        rng.random(out=uniforms)
        if dead_bits:
            bit_generator.advance(dead_bits)
        np.less(uniforms, ber, out=failed)
        sites = np.flatnonzero(failed)
        if sites.size <= sparse_limit:
            _masks_at_sites(
                sites,
                _stuck_high_at_sites(rng, sites, n_bits),
                word_bits,
                set_mask[trial],
                clear_mask[trial],
            )
        else:
            rng.random(out=uniforms)
            if dead_bits:
                bit_generator.advance(dead_bits)
            set_mask[trial, :live], clear_mask[trial, :live] = _pack_masks(
                failed, uniforms < 0.5
            )
    if pending_half is not None and pending_half["has_uint32"]:
        state = bit_generator.state
        state["has_uint32"] = pending_half["has_uint32"]
        state["uinteger"] = pending_half["uinteger"]
        bit_generator.state = state
    return FaultMap._trusted(word_bits, set_mask, clear_mask, bound)


def _stuck_high_at_sites(
    rng: np.random.Generator, sites: np.ndarray, n_bits: int
) -> np.ndarray:
    """The stuck-value draws of the failed ``sites`` of one block.

    Reads exactly the doubles the dense ``(n_bits,)`` stuck-value block
    would hold at ``sites`` (ascending flat indices) and leaves the
    stream at the end of that block: a PCG64 double consumes one 64-bit
    output, so ``advance(gap)`` skips ``gap`` uniforms without
    generating them.
    """
    advance, draw = rng.bit_generator.advance, rng.random
    stuck_high = []
    position = 0
    for site in sites.tolist():
        if site > position:
            advance(site - position)
        stuck_high.append(draw() < 0.5)
        position = site + 1
    if n_bits > position:
        advance(n_bits - position)
    return np.array(stuck_high, dtype=bool)


def _masks_at_sites(
    sites: np.ndarray,
    stuck_high: np.ndarray,
    word_bits: int,
    set_row: np.ndarray,
    clear_row: np.ndarray,
) -> None:
    """Write the masks of failed flat bit ``sites`` into zeroed rows.

    The same layout :func:`_pack_masks` builds from the boolean blocks:
    site ``w * word_bits + j`` is bit ``j`` of word ``w``.
    """
    words, bits = np.divmod(sites, word_bits)
    weights = np.int64(1) << bits
    np.bitwise_or.at(set_row, words[stuck_high], weights[stuck_high])
    np.bitwise_or.at(clear_row, words[~stuck_high], weights[~stuck_high])


def position_fault_map(
    n_words: int,
    word_bits: int,
    position: int,
    stuck_value: int,
) -> FaultMap:
    """Stick bit ``position`` of *every* word at ``stuck_value``.

    This is the Fig 2 methodology: "we successively set to '1' and '0'
    each bit located on the positions 0 to 15 of the 16-bits data
    buffers".
    """
    if not 0 <= position < word_bits:
        raise MemoryModelError(
            f"position must be in [0, {word_bits}), got {position}"
        )
    if stuck_value not in (0, 1):
        raise MemoryModelError(f"stuck_value must be 0 or 1, got {stuck_value}")
    mask = np.full(n_words, np.int64(1) << np.int64(position), dtype=np.int64)
    zeros = np.zeros(n_words, dtype=np.int64)
    if stuck_value == 1:
        return FaultMap(word_bits=word_bits, set_mask=mask, clear_mask=zeros)
    return FaultMap(word_bits=word_bits, set_mask=zeros, clear_mask=mask)


def position_fault_map_batch(
    n_words: int,
    word_bits: int,
    configurations: list[tuple[int, int]] | tuple[tuple[int, int], ...],
) -> FaultMap:
    """Stack one :func:`position_fault_map` trial per configuration.

    Args:
        n_words: words per trial.
        word_bits: word width.
        configurations: ``(position, stuck_value)`` pairs, one trial
            each, in order — the whole Fig 2 sweep of an application
            becomes a single batched pipeline pass.

    The result is memoized per configuration tuple (the map is
    deterministic and immutable): the Fig 2 sweep asks for the same
    32-configuration stack once per application.
    """
    if not configurations:
        raise MemoryModelError(
            "position_fault_map_batch needs at least one configuration"
        )
    return _position_fault_map_batch_cached(
        n_words, word_bits, tuple(tuple(pair) for pair in configurations)
    )


@lru_cache(maxsize=32)
def _position_fault_map_batch_cached(
    n_words: int,
    word_bits: int,
    configurations: tuple[tuple[int, int], ...],
) -> FaultMap:
    """The memoized body of :func:`position_fault_map_batch`."""
    for position, stuck_value in configurations:
        if not 0 <= position < word_bits:
            raise MemoryModelError(
                f"position must be in [0, {word_bits}), got {position}"
            )
        if stuck_value not in (0, 1):
            raise MemoryModelError(
                f"stuck_value must be 0 or 1, got {stuck_value}"
            )
    n_trials = len(configurations)
    positions = np.asarray([p for p, _s in configurations], dtype=np.int64)
    stuck = np.asarray([s for _p, s in configurations], dtype=np.int64)
    bits = np.int64(1) << positions
    # Each trial's mask is one constant per word: a single broadcast
    # assignment per mask materialises the (n_trials, n_words) arrays.
    set_mask = np.empty((n_trials, n_words), dtype=np.int64)
    clear_mask = np.empty((n_trials, n_words), dtype=np.int64)
    set_mask[...] = np.where(stuck == 1, bits, 0)[:, None]
    clear_mask[...] = np.where(stuck == 0, bits, 0)[:, None]
    return FaultMap._trusted(word_bits, set_mask, clear_mask)
