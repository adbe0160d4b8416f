"""Voltage-triggered EMT selection (paper Section VI-C).

The paper's final experiment observes that no single EMT wins across the
whole voltage range: running unprotected is cheapest while the memory is
still error-free, DREAM wins in the mid range, and ECC's full single-error
correction is worth its cost just above the multi-error regime.  Combining
them — "triggering, selectively, one or the other, according to the
memory supply voltage and level of protection required" — yields the
12.7 % / 30.6 % / 39.5 % savings headline.

:class:`HybridEMT` is the runtime side of that idea: an EMT whose
encode/decode paths dispatch to a member technique chosen by the current
supply voltage.  The *selection* of voltage ranges from measured
SNR-vs-voltage data lives in :mod:`repro.exp.tradeoff`; the policy object
built there can be loaded into a ``HybridEMT`` for deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EMTError
from .base import EMT, DecodeStats

__all__ = ["VoltageRange", "HybridEMT"]


@dataclass(frozen=True)
class VoltageRange:
    """One policy entry: use ``emt_name`` for supplies in [v_min, v_max].

    Attributes:
        v_min: lower bound of the range in volts (inclusive).
        v_max: upper bound of the range in volts (inclusive).
        emt_name: registry name of the technique to apply.
        saving_pct: optional energy saving (vs nominal, unprotected)
            recorded by the trade-off experiment for reporting.
    """

    v_min: float
    v_max: float
    emt_name: str
    saving_pct: float | None = None

    def __post_init__(self) -> None:
        if self.v_min > self.v_max:
            raise EMTError(
                f"empty voltage range [{self.v_min}, {self.v_max}]"
            )

    def contains(self, voltage: float) -> bool:
        """Whether ``voltage`` falls inside this range (inclusive)."""
        return self.v_min <= voltage <= self.v_max


class HybridEMT(EMT):
    """An EMT that switches member techniques with the supply voltage.

    The stored geometry must accommodate the widest member (the memory is
    provisioned for the most expensive technique); members with narrower
    codewords simply leave the top bits unused, which matches hardware
    where the ECC check-bit columns exist physically even when bypassed.

    Example:
        >>> from repro.emt import DreamEMT, NoProtection, SecDedEMT
        >>> policy = [
        ...     VoltageRange(0.85, 0.90, "none"),
        ...     VoltageRange(0.65, 0.85, "dream"),
        ...     VoltageRange(0.55, 0.65, "secded"),
        ... ]
        >>> members = {e.name: e for e in
        ...            (NoProtection(), DreamEMT(), SecDedEMT())}
        >>> hybrid = HybridEMT(members, policy, voltage=0.7)
        >>> hybrid.active.name
        'dream'
    """

    name = "hybrid"

    def __init__(
        self,
        members: dict[str, EMT],
        policy: list[VoltageRange],
        voltage: float,
    ) -> None:
        if not members:
            raise EMTError("HybridEMT requires at least one member EMT")
        data_bits = {emt.data_bits for emt in members.values()}
        if len(data_bits) != 1:
            raise EMTError(f"members disagree on data_bits: {data_bits}")
        super().__init__(data_bits.pop())
        for entry in policy:
            if entry.emt_name not in members:
                raise EMTError(
                    f"policy references unknown EMT {entry.emt_name!r}"
                )
        self.members = dict(members)
        self.policy = sorted(policy, key=lambda r: r.v_min)
        self._voltage = 0.0
        self._active: EMT | None = None
        self.set_voltage(voltage)

    # -- policy dispatch ----------------------------------------------------

    def select(self, voltage: float) -> EMT:
        """Return the member EMT the policy prescribes at ``voltage``.

        A voltage on the shared boundary of two ranges resolves to the
        higher range: its technique is safe there and the cheaper one.
        """
        for entry in reversed(self.policy):
            if entry.contains(voltage):
                return self.members[entry.emt_name]
        raise EMTError(
            f"no policy entry covers {voltage} V; "
            f"ranges: {[(r.v_min, r.v_max) for r in self.policy]}"
        )

    def set_voltage(self, voltage: float) -> None:
        """Re-point encode/decode at the technique for ``voltage``."""
        self._active = self.select(voltage)
        self._voltage = voltage

    @property
    def voltage(self) -> float:
        """The currently configured supply voltage."""
        return self._voltage

    @property
    def active(self) -> EMT:
        """The member EMT currently in effect."""
        if self._active is None:  # pragma: no cover - set in __init__
            raise EMTError("HybridEMT has no active member")
        return self._active

    # -- geometry (provisioned for the widest member) -----------------------

    @property
    def stored_bits(self) -> int:
        return max(emt.stored_bits for emt in self.members.values())

    @property
    def side_bits(self) -> int:
        return max(emt.side_bits for emt in self.members.values())

    # -- delegated EMT interface --------------------------------------------

    def encode(
        self, payload: np.ndarray, checked: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        return self.active.encode(payload, checked)

    def decode(
        self,
        stored: np.ndarray,
        side: np.ndarray | None,
        stats: DecodeStats | None = None,
        checked: bool = False,
    ) -> np.ndarray:
        return self.active.decode(stored, side, stats, checked)

    def encode_word(self, payload: int) -> tuple[int, int]:
        return self.active.encode_word(payload)

    def decode_word(self, stored: int, side: int) -> int:
        return self.active.decode_word(stored, side)
