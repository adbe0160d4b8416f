"""The fault-site-only fabric against the dense fabric it replaced.

A stacked roundtrip encodes, corrupts and decodes only the words whose
fault mask is non-zero, runs 1-D and 2-D values as one window, and
leaves its last window in the cells to be encoded on the next
``write`` or ``read``.  :class:`ReferenceFabric` keeps the dense
``write`` / ``read`` / ``roundtrip`` / ``_roundtrip_stacked`` verbatim
as they stood before; every test asserts ``==`` on the outputs, the end
state, the side memory and every counter.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._bitops import to_signed, to_unsigned
from repro.emt import PAPER_EMTS, DreamEMT, HybridEMT, VoltageRange
from repro.emt.base import NoProtection
from repro.errors import MemoryModelError
from repro.mem.fabric import AccessEvent, BufferHandle, MemoryFabric
from repro.mem.faults import (
    FaultMap,
    position_fault_map_batch,
    sample_fault_map_batch,
)
from repro.mem.layout import MemoryGeometry

N_WORDS = 64


class ReferenceFabric(MemoryFabric):
    """The dense fabric: every word of every window through the codec."""

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

    def roundtrip(self, name: str, values: np.ndarray) -> np.ndarray:
        """Write ``values`` to buffer ``name`` and read them straight back.

        The idiom applications use at every pipeline-stage boundary: the
        stage's result is parked in the faulty memory and whatever
        survives is what the next stage computes on.  Buffer sizing uses
        the per-trial word count, so batched and single-trial runs share
        one static allocation layout (identical addresses — a
        precondition for bit-identical corruption).

        On a batched fabric, 3-D ``(n_trials | 1, n_windows, k)`` values
        take the window-stacked fast path (see :attr:`window_stacking`):
        every window of every trial round-trips in one vectorised pass,
        bit-identical to looping the windows through :meth:`write` /
        :meth:`read` one at a time.
        """
        signed = np.asarray(values, dtype=np.int64)
        n_words = int(signed.shape[-1]) if signed.ndim else 0
        handle = self.allocate(name, max(n_words, 1))
        if signed.ndim == 3:
            return self._roundtrip_stacked(handle, signed)
        self.write(handle, signed)
        return self.read(handle, n_words)

    def _roundtrip_stacked(
        self, handle: BufferHandle, signed: np.ndarray
    ) -> np.ndarray:
        """Window-stacked roundtrip: ``(n_trials, n_windows, k)`` at once.

        Semantically equivalent to looping ``write(w); read(w)`` over
        the window axis: corruption-on-write means every window reads
        back ``apply(encode(window))``, and the cells (and side memory)
        are left holding the *last* window — the sequential end state.
        """
        if not self.window_stacking:
            raise MemoryModelError(
                "window-stacked roundtrips need a batched, untraced fabric"
            )
        n_trials = self.n_trials
        if signed.shape[0] == 1:
            signed = np.broadcast_to(signed, (n_trials,) + signed.shape[1:])
        elif signed.shape[0] != n_trials:
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
        payload = to_unsigned(signed, self.emt.data_bits)
        # NoProtection's encode/decode are identities (modulo defensive
        # copies); short-circuiting them saves two whole-batch copies
        # per roundtrip on the unprotected third of every sweep.
        identity = type(self.emt) is NoProtection
        if identity:
            stored, side = payload, None
        else:
            stored, side = self.emt.encode(payload, checked=True)
        addresses = slice(handle.base, handle.base + n_words)
        corrupted = self.sram.write_readback_stacked(addresses, stored)
        count = n_words * n_windows * n_trials
        self.stats.data_writes += count
        self.stats.data_reads += count
        if side is not None:
            if self._side is None:  # pragma: no cover - guarded by side_bits
                raise MemoryModelError("EMT produced side info unexpectedly")
            self._side[:, addresses] = side[:, -1, :]
            self.stats.side_writes += count
            self.stats.side_reads += count
        if identity:
            if self.collect_decode_stats:
                self.stats.decode.words += corrupted.size
            decoded = corrupted
        else:
            decoded = self.emt.decode(
                corrupted,
                side,
                self.stats.decode if self.collect_decode_stats else None,
                checked=True,
            )
        return to_signed(decoded, self.emt.data_bits)


def _hybrid(voltage: float) -> HybridEMT:
    members = {
        emt.name: emt
        for emt in (NoProtection(), DreamEMT(), PAPER_EMTS["secded"]())
    }
    policy = [
        VoltageRange(0.85, 0.90, "none"),
        VoltageRange(0.65, 0.85, "dream"),
        VoltageRange(0.50, 0.65, "secded"),
    ]
    return HybridEMT(members, policy, voltage=voltage)


#: Every paper codec, DREAM without its boundary bit, and the hybrid
#: with each member active (it stores at the widest member's width).
CODECS = {
    **PAPER_EMTS,
    "dream_no_boundary": lambda: DreamEMT(compensate_boundary=False),
    "hybrid_none": lambda: _hybrid(0.9),
    "hybrid_dream": lambda: _hybrid(0.7),
    "hybrid_secded": lambda: _hybrid(0.6),
}

BUFFERS = {"a": 16, "b": 12}


def _fabric_pair(codec: str, n_trials: int, density: float, seed: int):
    """A site-only and a reference fabric over one batched fault map.

    ``density`` is the expected share of (trial, address) words holding
    a fault: each of a word's stored bits fails with the BER that gives
    it.
    """
    emt = CODECS[codec]()
    ber = 1.0 - (1.0 - density) ** (1.0 / emt.stored_bits)
    fault_map = sample_fault_map_batch(
        n_trials, N_WORDS, emt.stored_bits, ber, np.random.default_rng(seed)
    )
    geometry = MemoryGeometry(n_words=N_WORDS, word_bits=16, n_banks=4)
    fabrics = (
        MemoryFabric(CODECS[codec](), fault_map=fault_map, geometry=geometry),
        ReferenceFabric(
            CODECS[codec](), fault_map=fault_map, geometry=geometry
        ),
    )
    for fabric in fabrics:
        for name, length in BUFFERS.items():
            fabric.allocate(name, length)
    return fabrics


def _assert_same_state(fabric: MemoryFabric, reference: MemoryFabric):
    """End state through ``read``, then side memory and every counter."""
    for name, length in BUFFERS.items():
        assert np.array_equal(
            fabric.read(fabric.buffer(name), length),
            reference.read(reference.buffer(name), length),
        )
    if reference._side is None:
        assert fabric._side is None
    else:
        assert np.array_equal(fabric._side, reference._side)
    assert fabric.stats == reference.stats
    assert fabric.sram.read_count == reference.sram.read_count
    assert fabric.sram.write_count == reference.sram.write_count


def _values(rng, kind: str, n_trials: int, n_windows: int, n_words: int):
    """Operand of one operation; wider than 16 bits, as app stages are."""
    if kind == "strided_stack":
        values = _values(rng, "stack", n_trials, n_words, n_windows)
        return values.transpose(0, 2, 1)
    shape = {
        "stack": (n_trials, n_windows, n_words),
        "broadcast_stack": (1, n_windows, n_words),
        "rows": (n_trials, n_words),
        "words": (n_words,),
    }[kind]
    return rng.integers(-(1 << 17), 1 << 17, size=shape, dtype=np.int64)


_operations = st.lists(
    st.tuples(
        st.sampled_from(sorted(BUFFERS)),
        st.sampled_from(
            [
                "stack",
                "strided_stack",
                "broadcast_stack",
                "rows",
                "words",
                "write",
                "read",
            ]
        ),
        st.integers(1, 12),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=6,
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    codec=st.sampled_from(sorted(CODECS)),
    n_trials=st.integers(1, 4),
    density=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    seed=st.integers(0, 2**32 - 1),
    operations=_operations,
)
def test_site_only_fabric_equals_dense_reference(
    codec, n_trials, density, seed, operations
):
    fabric, reference = _fabric_pair(codec, n_trials, density, seed)
    rng = np.random.default_rng(seed)
    for name, kind, n_words, n_windows in operations:
        if kind == "read":
            assert np.array_equal(
                fabric.read(fabric.buffer(name), n_words),
                reference.read(reference.buffer(name), n_words),
            )
            continue
        if kind == "write":
            values = _values(rng, "rows", n_trials, 1, n_words)
            fabric.write(fabric.buffer(name), values)
            reference.write(reference.buffer(name), values)
            continue
        values = _values(rng, kind, n_trials, n_windows, n_words)
        out = fabric.roundtrip(name, values)
        expected = reference.roundtrip(name, values)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)
    _assert_same_state(fabric, reference)


@settings(max_examples=60, deadline=None)
@given(
    n_trials=st.integers(1, 5),
    density=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**32 - 1),
    word_bits=st.sampled_from([16, 17, 22]),
    picked=st.sets(st.integers(0, 4), min_size=1),
)
def test_fault_sites_and_their_restriction(
    n_trials, density, seed, word_bits, picked
):
    """Sites list every faulty word by address, then trial; restricted
    maps derive theirs from the shared map's, equal to a fresh scan."""
    ber = 1.0 - (1.0 - density) ** (1.0 / 22)
    fault_map = sample_fault_map_batch(
        n_trials, N_WORDS, 22, ber, np.random.default_rng(seed)
    )
    trials, words = np.nonzero(fault_map.set_mask | fault_map.clear_mask)
    order = np.lexsort((trials, words))
    address, trial, set_bits, inv_clear = fault_map.fault_sites()
    assert np.array_equal(address, words[order])
    assert np.array_equal(trial, trials[order])
    assert np.array_equal(set_bits, fault_map.set_mask[trial, address])
    assert np.array_equal(inv_clear, ~fault_map.clear_mask[trial, address])
    assert fault_map.faulty_share() == address.size / (n_trials * N_WORDS)

    rows = np.array(sorted(t for t in picked if t < n_trials) or [0])
    restricted = fault_map.restricted_trials(rows, word_bits)
    fresh = FaultMap(
        word_bits, restricted.set_mask.copy(), restricted.clear_mask.copy()
    )
    for derived, scanned in zip(restricted.fault_sites(), fresh.fault_sites()):
        assert np.array_equal(derived, scanned)
    assert restricted.faulty_share() == fresh.faulty_share()


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("density", [0.0, 0.05, 0.6, 0.95])
def test_shrinking_roundtrips_leave_the_sequential_end_state(codec, density):
    """Shorter roundtrips to one buffer overwrite only their prefix; the
    cells still hold the longer window's tail when ``read`` settles."""
    fabric, reference = _fabric_pair(codec, 3, density, seed=7)
    rng = np.random.default_rng(3)
    for n_words, kind in ((16, "stack"), (11, "broadcast_stack"),
                          (6, "rows"), (2, "words")):
        values = _values(rng, kind, 3, 3, n_words)
        assert np.array_equal(
            fabric.roundtrip("a", values), reference.roundtrip("a", values)
        )
    _assert_same_state(fabric, reference)


@pytest.mark.parametrize("density,dense_calls", [(0.05, 0), (0.9, 2)])
def test_density_switch_takes_each_path(monkeypatch, density, dense_calls):
    """Sparse buffers skip the dense SRAM pass; very faulty ones take it."""
    fabric, reference = _fabric_pair("secded", 4, density, seed=11)
    calls = []
    dense = fabric.sram.write_readback_stacked
    monkeypatch.setattr(
        fabric.sram,
        "write_readback_stacked",
        lambda *args: calls.append(args) or dense(*args),
    )
    rng = np.random.default_rng(5)
    for kind in ("stack", "words"):
        values = _values(rng, kind, 4, 2, 16)
        assert np.array_equal(
            fabric.roundtrip("a", values), reference.roundtrip("a", values)
        )
    assert len(calls) == dense_calls
    _assert_same_state(fabric, reference)


def test_map_above_the_switch_never_builds_its_sites(monkeypatch):
    """A Fig 2 position map faults every word: no site list is built."""
    fault_map = position_fault_map_batch(N_WORDS, 16, [(3, 1), (15, 0)])
    monkeypatch.setattr(
        FaultMap, "fault_sites", lambda self: pytest.fail("sites built")
    )
    geometry = MemoryGeometry(n_words=N_WORDS, word_bits=16, n_banks=4)
    fabric = MemoryFabric(DreamEMT(), fault_map=fault_map, geometry=geometry)
    reference = ReferenceFabric(
        DreamEMT(), fault_map=fault_map, geometry=geometry
    )
    values = np.arange(-600, 600, 50, dtype=np.int64)
    for shaped in (values, values.reshape(1, 2, -1)):
        assert np.array_equal(
            fabric.roundtrip("a", shaped), reference.roundtrip("a", shaped)
        )
    assert fabric.stats == reference.stats


def test_row_count_mismatch_still_rejected():
    fabric, _reference = _fabric_pair("dream", 3, 0.1, seed=1)
    with pytest.raises(MemoryModelError, match="trial rows"):
        fabric.roundtrip("a", np.zeros((2, 8), dtype=np.int64))


def test_untraced_batched_fabric_takes_one_path(monkeypatch):
    """1-D and 2-D values ride the stacked path: no write/read pair."""
    fabric, reference = _fabric_pair("dream", 2, 0.1, seed=2)
    monkeypatch.setattr(
        fabric, "write", lambda *a: pytest.fail("classic write taken")
    )
    rng = np.random.default_rng(9)
    for kind in ("words", "rows"):
        values = _values(rng, kind, 2, 1, 10)
        out = fabric.roundtrip("b", values)
        assert out.shape == (2, 10)
        assert np.array_equal(out, reference.roundtrip("b", values))


def test_traced_fabric_keeps_the_write_read_loop():
    fabric, reference = _fabric_pair("secded", 2, 0.2, seed=3)
    traced = MemoryFabric(
        CODECS["secded"](),
        fault_map=fabric.sram.fault_map,
        geometry=fabric.sram.geometry,
        record_trace=True,
    )
    values = np.arange(-5, 5, dtype=np.int64)
    assert np.array_equal(
        traced.roundtrip("x", values), reference.roundtrip("x", values)
    )
    assert traced.trace == [
        AccessEvent(True, 0, 10, "x"),
        AccessEvent(False, 0, 10, "x"),
    ]
