"""Experiment E4 — Section VI-C: trading result quality for energy.

The paper's closing experiment: given an application and an output
degradation tolerance (DWT at -1 dB in the paper), find for each EMT the
lowest supply voltage whose Fig 4 quality still meets the tolerance, and
the energy saved by running there relative to the nominal, unprotected
system.  The published example:

* no protection holds quality down to 0.85 V  -> save 12.7 %,
* DREAM holds it down to 0.65 V              -> save 30.6 %,
* ECC SEC/DED holds it down to 0.55 V        -> save 39.5 %,

yielding a three-range hybrid policy ("triggering, selectively, one or
the other, according to the memory supply voltage"); below 0.55 V only
multi-error EMTs could maintain a reliable medical output.

A ``figure = "tradeoff"`` experiment plans two campaigns through
:class:`repro.api.Session`: the Fig 4 quality grid of the application,
and the (EMT, voltage) energy grid priced on the application's own
workload (record 100, 10 s), evaluated by the same ``energy`` evaluator
energy-table and sweep experiments use.  :func:`tradeoff_from_records`
joins the two into rows and reads the operating points off them with
:func:`repro.campaign.analysis.extract_tradeoff`, the one
implementation of the VI-C rule.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..campaign.analysis import (
    OperatingPoint,
    extract_tradeoff,
    quality_energy_rows,
)
from ..campaign.evaluators import measured_workload
from ..emt import make_emt
from ..emt.hybrid import VoltageRange
from ..energy.accounting import EnergySystemModel, Workload
from ..energy.technology import TECH_32NM_LP, Technology
from ..errors import ExperimentError

__all__ = [
    "TradeoffResult",
    "tradeoff_from_records",
    "paper_example_savings",
    "PAPER_EXAMPLE_POINTS",
]

#: The illustrative operating points of Section VI-C ("e.g.: [0.9; 0.85],
#: [0.85; 0.65] and [0.65; 0.55] Volts"), with the savings the paper
#: reports for each: 12.7 %, 30.6 % and 39.5 %.
PAPER_EXAMPLE_POINTS: tuple[tuple[str, float, float], ...] = (
    ("none", 0.85, 12.7),
    ("dream", 0.65, 30.6),
    ("secded", 0.55, 39.5),
)


@dataclass
class TradeoffResult:
    """The Section VI-C voltage-range policy for one application."""

    app_name: str
    tolerance_db: float
    reference_snr_db: float
    operating_points: list[OperatingPoint] = field(default_factory=list)
    policy: list[VoltageRange] = field(default_factory=list)


def tradeoff_from_records(
    records: Iterable[dict],
    app_name: str,
    emt_names: tuple[str, ...],
    tolerance_db: float,
    voltages: tuple[float, ...],
) -> TradeoffResult:
    """Derive the VI-C policy from quality and energy campaign records.

    Args:
        records: the ``montecarlo`` records of a Fig 4 grid over
            ``app_name`` plus the ``energy`` records of the (EMT,
            voltage) grid priced on its workload — live from a run or
            reloaded from a result store.
        app_name: application setting the quality requirement.
        emt_names: candidate techniques, in the order the operating
            points are listed.
        tolerance_db: allowed degradation below the error-free ceiling
            (the paper uses 1 dB for DWT).
        voltages: the planned voltage grid; its highest entry is the
            nominal supply the savings are measured at.

    Returns:
        A :class:`TradeoffResult` with per-EMT operating points and the
        stitched hybrid voltage policy.

    This is the experiment API's trade-off reducer.  The VI-C rule
    itself — the lowest voltage whose SNR stays within the tolerance,
    walking down from the top of the grid without a gap — is
    :func:`repro.campaign.analysis.extract_tradeoff`.
    """
    if tolerance_db < 0:
        raise ExperimentError("tolerance must be non-negative")
    records = list(records)
    rows = [
        row for row in quality_energy_rows(records, app_name)
        if row["emt"] in emt_names
    ]
    if not rows:
        raise ExperimentError(
            f"records hold no quality/energy rows for app {app_name!r}"
        )
    v_nominal = max(voltages)
    if "none" not in emt_names:
        # The savings baseline is priced even when it is not a
        # candidate; its -inf SNR keeps it out of the ceiling and policy.
        rows += [
            {"emt": "none", "voltage": v_nominal, "snr_db": float("-inf"),
             "energy_pj": rec["result"]["total_pj"]}
            for rec in records
            if rec.get("kind") == "energy" and rec.get("status") == "ok"
            and rec["params"].get("workload_app", app_name) == app_name
            and rec["params"]["emt"] == "none"
            and rec["params"]["voltage"] == v_nominal
        ]
    safe = {
        point.emt_name: point
        for point in extract_tradeoff(rows, tolerance_db, voltages=voltages)
    }
    operating_points = [safe[name] for name in emt_names if name in safe]
    return TradeoffResult(
        app_name=app_name,
        tolerance_db=tolerance_db,
        # The error-free ceiling the tolerance is read from.
        reference_snr_db=max(
            row["snr_db"] for row in rows if row["voltage"] == v_nominal
        ),
        operating_points=operating_points,
        policy=_build_policy(operating_points, v_nominal),
    )


def paper_example_savings(
    workload: Workload | None = None,
    tech: Technology = TECH_32NM_LP,
    v_nominal: float = 0.90,
    points: tuple[tuple[str, float, float], ...] = PAPER_EXAMPLE_POINTS,
) -> list[OperatingPoint]:
    """Savings at the paper's *illustrative* Section VI-C ranges.

    The paper's three voltage ranges are given as an example ("e.g.:")
    rather than derived strictly from Fig 4 — under a literal -1 dB
    criterion its own Fig 4c curves would already violate the tolerance
    at 0.55 V.  This helper therefore prices the energy model exactly
    at the published operating points (and the unprotected nominal
    baseline), which is the comparison EXPERIMENTS.md records against
    12.7 % / 30.6 % / 39.5 %.  The points are given, not derived from
    quality, so their ``snr_db`` is NaN.
    """
    workload = workload or measured_workload()

    def total_pj(emt_name: str, voltage: float) -> float:
        model = EnergySystemModel(make_emt(emt_name), tech=tech)
        return model.evaluate(voltage, workload).total_pj

    baseline = total_pj("none", v_nominal)
    out = []
    for emt_name, voltage, _paper_pct in points:
        energy = total_pj(emt_name, voltage)
        out.append(OperatingPoint(
            emt_name=emt_name,
            v_min_safe=voltage,
            saving_vs_nominal=1.0 - energy / baseline,
            snr_db=float("nan"),
            energy_pj=energy,
        ))
    return out


def _build_policy(
    points: list[OperatingPoint], v_nominal: float
) -> list[VoltageRange]:
    """Stitch operating points into contiguous voltage ranges.

    Techniques are ordered by how deep they can scale; each owns the
    range between its own floor and the previous technique's floor —
    the paper's "[0.9; 0.85], [0.85; 0.65], [0.65; 0.55]" structure.
    """
    ordered = sorted(points, key=lambda p: -p.v_min_safe)
    policy: list[VoltageRange] = []
    upper = v_nominal
    for point in ordered:
        if point.v_min_safe >= upper:
            continue
        policy.append(
            VoltageRange(
                v_min=point.v_min_safe,
                v_max=upper,
                emt_name=point.emt_name,
                saving_pct=point.saving_vs_nominal * 100.0,
            )
        )
        upper = point.v_min_safe
    return policy
