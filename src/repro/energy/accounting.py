"""Whole-memory-system energy accounting (paper Section VI-B).

The quantity the paper compares across EMTs is the energy of the complete
protected memory system for a given workload:

* the **data memory** — the 32 kB array, widened to 22-bit words when the
  SEC/DED check bits live alongside the data, operated at the scaled
  supply voltage;
* the **mask memory** (DREAM only) — a 5-bit-per-word side array that is
  always error-free (Section IV-A).  *Modelling note (design decision
  D3)*: the paper keeps this array "at a high supply voltage level", yet
  its reported overheads — +34 % at nominal *and* the 30.6 % saving at
  0.65 V in Section VI-C — are only mutually consistent if the mask
  memory's energy contribution tracks the data supply (e.g. it is built
  from up-sized cells that remain reliable in the scaled domain, trading
  area for energy).  The default therefore scales the mask memory with
  the data voltage; ``mask_memory_scaled=False`` gives the conservative
  nominal-supply variant, in which DREAM's advantage erodes below
  ~0.7 V.  EXPERIMENTS.md quantifies both;
* the **encoder/decoder logic** — exercised on every write/read
  respectively.

:class:`EnergySystemModel` composes the CACTI-lite array models and the
gate-equivalent logic models into a per-workload
:class:`EnergyBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..emt.base import EMT
from ..errors import EnergyModelError
from ..mem.layout import PAPER_GEOMETRY, MemoryGeometry
from .logic_model import LogicCalibration, LOGIC_CALIB_32NM_LP, logic_blocks_for
from .sram_model import CALIB_32NM_LP, SramArrayModel, SramCalibration
from .technology import TECH_32NM_LP, Technology

__all__ = [
    "Workload",
    "EnergyBreakdown",
    "EnergySystemModel",
]


@dataclass(frozen=True)
class Workload:
    """Memory activity over one accounting window.

    Attributes:
        n_reads: word reads from the data memory.
        n_writes: word writes to the data memory.
        duration_s: wall-clock span of the window (for leakage).
    """

    n_reads: int
    n_writes: int
    duration_s: float

    def __post_init__(self) -> None:
        if self.n_reads < 0 or self.n_writes < 0:
            raise EnergyModelError("access counts must be non-negative")
        if self.duration_s < 0:
            raise EnergyModelError("duration must be non-negative")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one workload on one protected memory system, in pJ."""

    data_dynamic_pj: float
    data_leakage_pj: float
    side_dynamic_pj: float
    side_leakage_pj: float
    logic_dynamic_pj: float
    logic_leakage_pj: float

    @property
    def total_pj(self) -> float:
        """Sum of all components."""
        return (
            self.data_dynamic_pj
            + self.data_leakage_pj
            + self.side_dynamic_pj
            + self.side_leakage_pj
            + self.logic_dynamic_pj
            + self.logic_leakage_pj
        )

    def overhead_vs(self, baseline: "EnergyBreakdown") -> float:
        """Fractional energy overhead relative to ``baseline``.

        ``0.55`` means "+55 % energy", the form the paper quotes.
        """
        if baseline.total_pj <= 0:
            raise EnergyModelError("baseline energy must be positive")
        return self.total_pj / baseline.total_pj - 1.0


class EnergySystemModel:
    """Energy model of one EMT-protected memory system.

    Args:
        emt: the technique whose geometry (stored/side bits) and logic
            blocks are being modelled.
        tech: technology node.
        geometry: data-memory organisation *before* widening (the paper's
            32 kB array of 16-bit words by default).
        mask_memory_scaled: D3 knob — when True (default, see module
            docstring), DREAM's mask memory energy tracks the data
            supply; when False it stays at nominal supply.
        sram_calibration / logic_calibration: node constants.

    Example:
        >>> from repro.emt import DreamEMT, NoProtection
        >>> wl = Workload(n_reads=10000, n_writes=10000, duration_s=1e-3)
        >>> base = EnergySystemModel(NoProtection()).evaluate(0.9, wl)
        >>> dream = EnergySystemModel(DreamEMT()).evaluate(0.9, wl)
        >>> 0.2 < dream.overhead_vs(base) < 0.5
        True
    """

    def __init__(
        self,
        emt: EMT,
        tech: Technology = TECH_32NM_LP,
        geometry: MemoryGeometry = PAPER_GEOMETRY,
        mask_memory_scaled: bool = True,
        sram_calibration: SramCalibration = CALIB_32NM_LP,
        logic_calibration: LogicCalibration = LOGIC_CALIB_32NM_LP,
    ) -> None:
        self.emt = emt
        self.tech = tech
        self.mask_memory_scaled = mask_memory_scaled
        self.data_array = SramArrayModel(
            geometry.with_word_bits(emt.stored_bits), tech, sram_calibration
        )
        self.side_array = (
            SramArrayModel(
                geometry.with_word_bits(emt.side_bits), tech, sram_calibration
            )
            if emt.side_bits
            else None
        )
        self.encoder, self.decoder = logic_blocks_for(
            emt.name, tech, logic_calibration
        )

    def evaluate(self, voltage: float, workload: Workload) -> EnergyBreakdown:
        """Energy of ``workload`` with the data memory at ``voltage``."""
        self.tech.check_voltage(voltage)
        seconds_to_pj = 1e6  # uW * s -> pJ

        data_dyn = (
            workload.n_reads * self.data_array.read_energy_pj(voltage)
            + workload.n_writes * self.data_array.write_energy_pj(voltage)
        )
        data_leak = (
            self.data_array.leakage_power_uw(voltage)
            * workload.duration_s
            * seconds_to_pj
        )

        side_dyn = side_leak = 0.0
        if self.side_array is not None:
            side_voltage = voltage if self.mask_memory_scaled else self.tech.v_nominal
            side_dyn = (
                workload.n_reads * self.side_array.read_energy_pj(side_voltage)
                + workload.n_writes * self.side_array.write_energy_pj(side_voltage)
            )
            side_leak = (
                self.side_array.leakage_power_uw(side_voltage)
                * workload.duration_s
                * seconds_to_pj
            )

        logic_dyn = (
            workload.n_writes * self.encoder.energy_per_op_pj(voltage)
            + workload.n_reads * self.decoder.energy_per_op_pj(voltage)
        )
        logic_leak = (
            (
                self.encoder.leakage_power_uw(voltage)
                + self.decoder.leakage_power_uw(voltage)
            )
            * workload.duration_s
            * seconds_to_pj
        )

        return EnergyBreakdown(
            data_dynamic_pj=data_dyn,
            data_leakage_pj=data_leak,
            side_dynamic_pj=side_dyn,
            side_leakage_pj=side_leak,
            logic_dynamic_pj=logic_dyn,
            logic_leakage_pj=logic_leak,
        )

    # -- area (Section VI-B's encoder/decoder comparison) --------------------

    def encoder_area_um2(self) -> float:
        """Synthesised encoder area."""
        return self.encoder.area_um2()

    def decoder_area_um2(self) -> float:
        """Synthesised decoder area."""
        return self.decoder.area_um2()

    def memory_area_mm2(self) -> float:
        """Total SRAM area (data plus side arrays)."""
        total = self.data_array.area_mm2()
        if self.side_array is not None:
            total += self.side_array.area_mm2()
        return total
