"""Experiment E3 — the Section VI-B energy and area analysis.

Reproduces the paper's quantified claims:

* "the system consumes approximately 55 % more energy for each voltage"
  with ECC SEC/DED versus no protection;
* "With DREAM, the overall energy overhead is only 34 %, reducing by
  21 % the overhead of ECC";
* "ECC requires 28 % of area overhead for the encoder and 120 % for the
  decoder, compared to those of DREAM".

The workload is a representative application run: the fabric's access
counters from executing an app on a record give the read/write volumes,
and the active-processing time comes from the MPSoC cycle model.

The (EMT, voltage) grid is expressed as a campaign spec
(:func:`energy_spec`); a ``figure = "energy"`` experiment runs it
through :class:`repro.api.Session` and
:func:`energy_analysis_from_records` reduces the records.  The
trade-off driver prices its operating points with the same evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..campaign.evaluators import (
    measured_workload,
    technology_to_dict,
    workload_to_dict,
)
from ..campaign.spec import CampaignSpec
from ..emt import make_emt
from ..energy.accounting import EnergySystemModel, Workload
from ..energy.technology import TECH_32NM_LP, Technology
from ..errors import EnergyModelError, ExperimentError
from ..soc.config import SoCConfig
from .common import validate_registry_names

__all__ = [
    "EnergyAnalysis",
    "energy_analysis_from_records",
    "energy_spec",
    "measure_workload",
]


@dataclass
class EnergyAnalysis:
    """Energy overheads and area ratios across the voltage sweep."""

    voltages: list[float] = field(default_factory=list)
    #: ``total_pj[emt][voltage]`` — workload energy at each grid point.
    total_pj: dict[str, dict[float, float]] = field(default_factory=dict)
    #: ``overhead[emt][voltage]`` — fractional overhead vs no protection.
    overhead: dict[str, dict[float, float]] = field(default_factory=dict)
    #: area ratios vs DREAM's codec blocks (the paper's 1.28 / 2.20).
    encoder_area_ratio: float = 0.0
    decoder_area_ratio: float = 0.0
    workload: Workload | None = None

    def mean_overhead(self, emt_name: str) -> float:
        """Sweep-averaged overhead for one technique."""
        values = self.overhead.get(emt_name)
        if not values:
            raise ExperimentError(f"no overhead data for {emt_name!r}")
        return float(np.mean(list(values.values())))

    def dream_saving_vs_ecc(self) -> float:
        """Sweep-averaged energy saving of DREAM relative to ECC.

        The paper's abstract phrases the 21 % as overhead points (55 % to
        34 %); :meth:`overhead_reduction_points` gives that form.
        """
        dream = np.array(list(self.total_pj["dream"].values()))
        ecc = np.array(list(self.total_pj["secded"].values()))
        return float(np.mean(1.0 - dream / ecc))

    def overhead_reduction_points(self) -> float:
        """ECC overhead minus DREAM overhead, in fractional points."""
        return self.mean_overhead("secded") - self.mean_overhead("dream")


def measure_workload(
    app_name: str = "dwt",
    record: str = "100",
    duration_s: float = 10.0,
    soc: SoCConfig | None = None,
) -> Workload:
    """Derive the accounting workload from a real application run.

    Runs the application against a clean fabric, reads the access
    counters, and converts the access volume to active processing time
    with the SoC cycle model (accesses dominate the inner loops of these
    kernels, so cycles-per-access approximates the activity window).
    Delegates to :func:`repro.campaign.evaluators.measured_workload`, the
    same measurement campaign workers perform in-process.
    """
    return measured_workload(
        app_name=app_name, record=record, duration_s=duration_s, soc=soc
    )


def energy_spec(
    emt_names: tuple[str, ...],
    voltages: tuple[float, ...],
    workload: Workload,
    tech: Technology = TECH_32NM_LP,
    mask_memory_scaled: bool = True,
    name: str = "energy-analysis",
    filters: tuple = (),
) -> CampaignSpec:
    """The Section VI-B (EMT, voltage) grid as a campaign spec."""
    validate_registry_names(emt_names=emt_names)
    return CampaignSpec(
        name=name,
        kind="energy",
        axes={"emt": tuple(emt_names), "voltage": tuple(voltages)},
        fixed={
            "workload": workload_to_dict(workload),
            "tech": technology_to_dict(tech),
            "mask_memory_scaled": mask_memory_scaled,
        },
        filters=filters,
    )


def energy_analysis_from_records(
    records: list[dict],
    emt_names: tuple[str, ...],
    voltages: tuple[float, ...],
    workload: Workload | None = None,
    tech: Technology = TECH_32NM_LP,
    mask_memory_scaled: bool = True,
) -> EnergyAnalysis:
    """Reassemble an :class:`EnergyAnalysis` from ``energy`` records.

    ``records`` are campaign records of an :func:`energy_spec` grid —
    live from :func:`repro.campaign.run_campaign` or reloaded from a
    result store.  This is the experiment API's energy reducer.
    """
    analysis = EnergyAnalysis(voltages=sorted(voltages), workload=workload)
    for name in emt_names:
        analysis.total_pj[name] = {}
        analysis.overhead[name] = {}
    for record in records:
        if record.get("status") != "ok":
            continue
        params = record["params"]
        analysis.total_pj[params["emt"]][params["voltage"]] = record[
            "result"
        ]["total_pj"]
    for voltage in analysis.voltages:
        try:
            baseline = analysis.total_pj["none"][voltage]
        except KeyError as exc:
            raise ExperimentError(
                f"energy records are missing the 'none' baseline at "
                f"{voltage} V"
            ) from exc
        if baseline <= 0:
            raise EnergyModelError("baseline energy must be positive")
        for name in emt_names:
            if voltage not in analysis.total_pj[name]:
                raise ExperimentError(
                    f"energy records are missing grid point "
                    f"({name!r}, {voltage})"
                )
            analysis.overhead[name][voltage] = (
                analysis.total_pj[name][voltage] / baseline - 1.0
            )
    return _with_area_ratios(analysis, emt_names, tech, mask_memory_scaled)


def _with_area_ratios(
    analysis: EnergyAnalysis,
    emt_names: tuple[str, ...],
    tech: Technology,
    mask_memory_scaled: bool,
) -> EnergyAnalysis:
    """Fill in the paper's codec-area ratios (when both EMTs are swept)."""
    if "dream" in emt_names and "secded" in emt_names:
        dream = EnergySystemModel(
            make_emt("dream"), tech=tech, mask_memory_scaled=mask_memory_scaled
        )
        ecc = EnergySystemModel(
            make_emt("secded"), tech=tech, mask_memory_scaled=mask_memory_scaled
        )
        analysis.encoder_area_ratio = (
            ecc.encoder_area_um2() / dream.encoder_area_um2()
        )
        analysis.decoder_area_ratio = (
            ecc.decoder_area_um2() / dream.decoder_area_um2()
        )
    return analysis
