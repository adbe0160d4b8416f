"""CACTI-lite: an analytical banked-SRAM energy, leakage and area model.

CACTI 6.5 (the paper's memory modelling tool) is a large cache-modelling
program; this module re-implements the slice of it the paper needs — read
and write energy per access, leakage power and silicon area of a small
banked scratchpad SRAM — as a transparent analytical model:

* each bank is organised as a near-square sub-array of ``rows x columns``
  cells (column count balanced against the word width),
* a read charges one wordline (scaling with the number of columns), the
  accessed bitline pairs (scaling with the number of rows, one pair per
  word bit) and the sense amplifiers, plus a decoder term scaling with
  the address width,
* a write costs the same wordline/decode terms with full-swing bitline
  drive (a configurable multiplier of the read bitline energy),
* leakage scales with the total cell count and the node's
  temperature-dependent per-cell leakage,
* area is cell area times capacity plus a fixed periphery fraction.

All energies are reported at the array's *operating voltage* using the
technology's scaling laws; the calibration constants below were chosen so
the absolute numbers land in the published range for a 32 nm low-power
32 kB scratchpad (single-digit pJ per access) — the experiments only
consume ratios, which EXPERIMENTS.md compares against the paper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..mem.layout import MemoryGeometry
from .technology import Technology

__all__ = ["SramCalibration", "CALIB_32NM_LP", "SramArrayModel"]


@dataclass(frozen=True)
class SramCalibration:
    """Per-node constants of the CACTI-lite model (values at nominal V).

    Attributes:
        e_bitline_fj: read energy per (row, active column) pair, fJ.
        e_wordline_fj: energy per column on the fired wordline, fJ.
        e_sense_fj: sense-amplifier energy per accessed bit, fJ.
        e_decode_fj_per_addr_bit: row/column decode energy per address
            bit, fJ.
        write_bitline_factor: full-swing write drive relative to the read
            bitline energy.
        p_cell_leak_pw: leakage power per cell at nominal voltage and the
            node's reference temperature, pW.
        cell_area_um2: 6T low-power cell area, um^2.
        periphery_area_factor: decoder/sense/IO area as a fraction of the
            cell-array area.
    """

    e_bitline_fj: float = 2.0
    e_wordline_fj: float = 4.0
    e_sense_fj: float = 40.0
    e_decode_fj_per_addr_bit: float = 42.5
    write_bitline_factor: float = 1.25
    p_cell_leak_pw: float = 60.0
    cell_area_um2: float = 0.25
    periphery_area_factor: float = 0.30


#: Calibration for the paper's 32 nm low-power node at 343 K.
CALIB_32NM_LP = SramCalibration()


class SramArrayModel:
    """Energy/leakage/area of one banked SRAM array.

    Args:
        geometry: array organisation (words, width, banks).
        tech: technology node providing the voltage scaling laws.
        calibration: per-node constants; defaults to the 32 nm LP set.

    Example:
        >>> from repro.mem.layout import PAPER_GEOMETRY
        >>> from repro.energy.technology import TECH_32NM_LP
        >>> model = SramArrayModel(PAPER_GEOMETRY, TECH_32NM_LP)
        >>> 1.0 < model.read_energy_pj(0.9) < 20.0
        True
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        tech: Technology,
        calibration: SramCalibration = CALIB_32NM_LP,
    ) -> None:
        self.geometry = geometry
        self.tech = tech
        self.calib = calibration

        words_per_bank = geometry.words_per_bank
        word_bits = geometry.word_bits
        # Choose words-per-row so the sub-array is roughly square in cells.
        wpr = max(1, round(math.sqrt(words_per_bank / word_bits)))
        self.words_per_row = wpr
        self.rows = math.ceil(words_per_bank / wpr)
        self.columns = wpr * word_bits
        self.address_bits = max(1, math.ceil(math.log2(geometry.n_words)))

    # -- per-access dynamic energy ------------------------------------------

    def _access_energy_fj_nominal(self, is_write: bool) -> float:
        c = self.calib
        bits = self.geometry.word_bits
        bitline = c.e_bitline_fj * self.rows * bits
        if is_write:
            bitline *= c.write_bitline_factor
        wordline = c.e_wordline_fj * self.columns
        sense = 0.0 if is_write else c.e_sense_fj * bits
        decode = c.e_decode_fj_per_addr_bit * self.address_bits
        return bitline + wordline + sense + decode

    def read_energy_pj(self, voltage: float) -> float:
        """Energy of one word read at ``voltage``, picojoules."""
        scale = self.tech.dynamic_scale(voltage)
        return self._access_energy_fj_nominal(is_write=False) * scale / 1000.0

    def write_energy_pj(self, voltage: float) -> float:
        """Energy of one word write at ``voltage``, picojoules."""
        scale = self.tech.dynamic_scale(voltage)
        return self._access_energy_fj_nominal(is_write=True) * scale / 1000.0

    # -- static power ---------------------------------------------------------

    def leakage_power_uw(self, voltage: float) -> float:
        """Array leakage power at ``voltage``, microwatts.

        Scales with total cell count; the calibration's per-cell leakage
        already refers to the node's reference temperature (343 K in the
        paper's setup).
        """
        cells = self.geometry.capacity_bits
        p_nominal_pw = self.calib.p_cell_leak_pw * cells
        return p_nominal_pw * self.tech.leakage_scale(voltage) / 1e6

    # -- area ------------------------------------------------------------------

    def area_mm2(self) -> float:
        """Silicon area of the array, mm^2."""
        cell_area = self.calib.cell_area_um2 * self.geometry.capacity_bits
        total = cell_area * (1.0 + self.calib.periphery_area_factor)
        return total / 1e6

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"SramArrayModel({g.n_words}x{g.word_bits}b, {g.n_banks} banks, "
            f"{self.rows}r x {self.columns}c per bank)"
        )
