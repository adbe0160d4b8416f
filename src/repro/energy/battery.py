"""Battery-lifetime estimation — the paper's motivating metric.

The introduction frames everything in terms of "longer battery
lifetimes"; this module closes the loop from the memory-system energy
model to days of operation for a wearable monitoring node.

Model: the node continuously acquires ECG and processes it in windows.
The *memory-system* energy of processing one second of signal comes from
the accounting model (access counts scaled to a one-second acquisition);
a platform overhead factor covers everything the paper holds constant
across EMTs (cores, radio, AFE), so *relative* lifetimes between EMT
configurations remain meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..emt.base import EMT
from ..errors import EnergyModelError
from .accounting import EnergySystemModel, Workload
from .technology import TECH_32NM_LP, Technology

__all__ = [
    "BatteryModel",
    "BatteryState",
    "LifetimeEstimate",
    "estimate_lifetime",
]


@dataclass(frozen=True)
class BatteryModel:
    """An ideal primary cell.

    Attributes:
        capacity_mah: rated capacity in milliamp-hours.
        cell_voltage: terminal voltage in volts (3.0 V coin cell).
        usable_fraction: fraction of rated capacity available before the
            cut-off voltage (coin cells under pulsed load: ~0.8).
    """

    capacity_mah: float = 230.0
    cell_voltage: float = 3.0
    usable_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0:
            raise EnergyModelError(
                f"capacity must be positive, got {self.capacity_mah}"
            )
        if self.cell_voltage <= 0:
            raise EnergyModelError(
                f"cell voltage must be positive, got {self.cell_voltage}"
            )
        if not 0 < self.usable_fraction <= 1:
            raise EnergyModelError(
                f"usable fraction must be in (0, 1], got {self.usable_fraction}"
            )

    @property
    def usable_energy_j(self) -> float:
        """Extractable energy in joules."""
        return (
            self.capacity_mah * 3.6 * self.cell_voltage * self.usable_fraction
        )


class BatteryState:
    """Mutable discharge state of one :class:`BatteryModel` cell.

    The static model answers "how much energy does this cell hold"; the
    state tracks how much of it is left as a mission drains it window by
    window, which is what state-of-charge-aware runtime policies observe.

    Example:
        >>> state = BatteryState(BatteryModel(capacity_mah=1.0))
        >>> state.drain(state.remaining_j / 2)
        True
        >>> round(state.state_of_charge, 2)
        0.5
    """

    def __init__(self, model: BatteryModel) -> None:
        self.model = model
        self._remaining_j = model.usable_energy_j

    @property
    def remaining_j(self) -> float:
        """Extractable energy still in the cell, in joules."""
        return self._remaining_j

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction of the usable capacity, in ``[0, 1]``."""
        return self._remaining_j / self.model.usable_energy_j

    @property
    def depleted(self) -> bool:
        """True once the usable capacity is exhausted."""
        return self._remaining_j <= 0.0

    def drain(self, energy_j: float) -> bool:
        """Withdraw ``energy_j`` joules; return False once depleted.

        The final withdrawal clamps at empty (an ideal cell delivers its
        last joule, then cuts off), so ``remaining_j`` never goes
        negative.
        """
        if energy_j < 0:
            raise EnergyModelError(
                f"drained energy must be non-negative, got {energy_j}"
            )
        self._remaining_j = max(0.0, self._remaining_j - energy_j)
        return not self.depleted

    def reset(self) -> None:
        """Restore the cell to a full charge."""
        self._remaining_j = self.model.usable_energy_j

    def __repr__(self) -> str:
        return (
            f"BatteryState({self.model!r}, "
            f"soc={self.state_of_charge:.3f})"
        )


@dataclass(frozen=True)
class LifetimeEstimate:
    """Result of a lifetime computation."""

    energy_per_second_uj: float
    average_power_uw: float
    lifetime_days: float


def estimate_lifetime(
    emt: EMT,
    voltage: float,
    battery: BatteryModel,
    workload: Workload,
    tech: Technology = TECH_32NM_LP,
    acquisition_window_s: float = 8.0,
    platform_power_uw: float = 4.0,
) -> LifetimeEstimate:
    """Estimate node lifetime for one EMT/voltage configuration.

    Args:
        emt: the protection scheme in effect.
        voltage: data-memory supply voltage.
        battery: the energy source.
        workload: memory activity of processing one acquisition window
            (e.g. from :func:`repro.campaign.evaluators.measured_workload`).
        tech: technology node.
        acquisition_window_s: seconds of signal the workload corresponds
            to (sets the duty cycle).
        platform_power_uw: continuous EMT-independent platform draw
            (duty-cycled cores + AFE + radio of an ULP monitoring node),
            held constant across the configurations being compared.

    Returns:
        A :class:`LifetimeEstimate`; lifetimes are *comparative* figures
        (the platform term is a fixed model), which is how the paper's
        battery argument is used.
    """
    if acquisition_window_s <= 0:
        raise EnergyModelError(
            f"acquisition window must be positive, got {acquisition_window_s}"
        )
    if platform_power_uw < 0:
        raise EnergyModelError(
            f"platform power must be non-negative, got {platform_power_uw}"
        )

    model = EnergySystemModel(emt, tech=tech)
    memory_pj = model.evaluate(voltage, workload).total_pj
    memory_power_uw = memory_pj * 1e-12 / acquisition_window_s * 1e6
    total_power_uw = memory_power_uw + platform_power_uw

    lifetime_s = battery.usable_energy_j / (total_power_uw * 1e-6)
    return LifetimeEstimate(
        energy_per_second_uj=total_power_uw,
        average_power_uw=total_power_uw,
        lifetime_days=lifetime_s / 86_400.0,
    )
