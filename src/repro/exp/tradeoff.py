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

The energy evaluations are expressed as (EMT, voltage) campaign grids
through :func:`repro.exp.energy_table.energy_spec`, executed by the
shared campaign runner — the same evaluator energy-table and sweep
experiments use, so all of them price an operating point identically.
The operating points themselves come from
:func:`repro.campaign.analysis.extract_tradeoff`, the one
implementation of the VI-C rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..campaign.analysis import extract_tradeoff
from ..campaign.runner import run_campaign
from ..emt.hybrid import VoltageRange
from ..energy.accounting import Workload
from ..energy.technology import TECH_32NM_LP, Technology
from ..errors import ExperimentError
from .energy_table import energy_spec, measure_workload
from .fig4 import Fig4Result

__all__ = [
    "EmtOperatingPoint",
    "TradeoffResult",
    "run_tradeoff",
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


@dataclass(frozen=True)
class EmtOperatingPoint:
    """Lowest safe voltage and resulting saving for one EMT."""

    emt_name: str
    v_min_safe: float
    saving_vs_nominal: float


@dataclass
class TradeoffResult:
    """The Section VI-C voltage-range policy for one application."""

    app_name: str
    tolerance_db: float
    reference_snr_db: float
    operating_points: list[EmtOperatingPoint] = field(default_factory=list)
    policy: list[VoltageRange] = field(default_factory=list)

    def best_saving(self) -> float:
        """The largest saving any single technique achieves."""
        if not self.operating_points:
            raise ExperimentError("no operating points were computed")
        return max(p.saving_vs_nominal for p in self.operating_points)


def _energy_grid(
    emt_names: tuple[str, ...],
    voltages: tuple[float, ...],
    workload: Workload,
    tech: Technology,
    name: str,
    filters: tuple = (),
) -> dict[tuple[str, float], float]:
    """Evaluate an energy campaign and index totals by (EMT, voltage)."""
    spec = energy_spec(
        emt_names, voltages, workload, tech, name=name, filters=filters
    )
    campaign = run_campaign(spec)
    campaign.raise_on_failure()
    return {
        (rec["params"]["emt"], rec["params"]["voltage"]): rec["result"][
            "total_pj"
        ]
        for rec in campaign.records
    }


def run_tradeoff(
    fig4: Fig4Result,
    app_name: str = "dwt",
    tolerance_db: float = 1.0,
    emt_names: tuple[str, ...] = ("none", "dream", "secded"),
    workload: Workload | None = None,
    tech: Technology = TECH_32NM_LP,
) -> TradeoffResult:
    """Derive the VI-C policy from measured Fig 4 data.

    Args:
        fig4: a completed Fig 4 sweep containing ``app_name``.
        app_name: application setting the quality requirement.
        tolerance_db: allowed degradation below the error-free ceiling
            (the paper uses 1 dB for DWT).
        emt_names: candidate techniques, cheapest-first preference when
            building the range policy.
        workload / tech: energy-model inputs for the savings.

    Returns:
        A :class:`TradeoffResult` with per-EMT operating points and the
        stitched hybrid voltage policy.

    The VI-C rule itself — the lowest voltage whose SNR stays within
    the tolerance, walking down from the top of the sweep without a
    gap — is :func:`repro.campaign.analysis.extract_tradeoff`; this
    driver joins the Fig 4 quality with the energy grid into its rows.
    """
    if app_name not in fig4.points:
        raise ExperimentError(f"fig4 result has no app {app_name!r}")
    if tolerance_db < 0:
        raise ExperimentError("tolerance must be non-negative")
    workload = workload or measure_workload(app_name)

    grid_emts = emt_names if "none" in emt_names else ("none", *emt_names)
    energy = _energy_grid(
        grid_emts, tuple(fig4.voltages), workload, tech,
        name=f"tradeoff-{app_name}",
    )
    quality = fig4.points[app_name]
    rows = [
        {
            "emt": name,
            "voltage": voltage,
            "snr_db": quality[voltage].snr_mean_db[name],
            "energy_pj": energy[(name, voltage)],
        }
        for name in emt_names
        for voltage in fig4.voltages
    ]
    v_nominal = max(fig4.voltages)
    if "none" not in emt_names:
        # The savings baseline is priced even when it is not a
        # candidate; its -inf SNR keeps it out of the ceiling and policy.
        rows.append({
            "emt": "none", "voltage": v_nominal, "snr_db": float("-inf"),
            "energy_pj": energy[("none", v_nominal)],
        })
    safe = {
        point.emt_name: point
        for point in extract_tradeoff(
            rows, tolerance_db, voltages=fig4.voltages
        )
    }

    result = TradeoffResult(
        app_name=app_name,
        tolerance_db=tolerance_db,
        # The error-free ceiling the tolerance is read from.
        reference_snr_db=max(
            quality[v_nominal].snr_mean_db[name] for name in emt_names
        ),
        operating_points=[
            EmtOperatingPoint(
                emt_name=name,
                v_min_safe=safe[name].v_min_safe,
                saving_vs_nominal=safe[name].saving_vs_nominal,
            )
            for name in emt_names
            if name in safe
        ],
    )
    result.policy = _build_policy(result.operating_points, v_nominal)
    return result


def paper_example_savings(
    workload: Workload | None = None,
    tech: Technology = TECH_32NM_LP,
    v_nominal: float = 0.90,
    points: tuple[tuple[str, float, float], ...] = PAPER_EXAMPLE_POINTS,
) -> list[EmtOperatingPoint]:
    """Savings at the paper's *illustrative* Section VI-C ranges.

    The paper's three voltage ranges are given as an example ("e.g.:")
    rather than derived strictly from Fig 4 — under a literal -1 dB
    criterion its own Fig 4c curves would already violate the tolerance
    at 0.55 V.  This helper therefore evaluates the energy model exactly
    at the published operating points, which is the comparison
    EXPERIMENTS.md records against 12.7 % / 30.6 % / 39.5 %.

    The evaluation runs as a filtered campaign: the (EMT, voltage) cross
    product is cut down to the published pairs plus the unprotected
    nominal baseline.
    """
    workload = workload or measure_workload()
    wanted = {(name, voltage) for name, voltage, _pct in points}
    wanted.add(("none", v_nominal))

    emt_names = tuple(dict.fromkeys(name for name, _v, _p in points))
    if "none" not in emt_names:
        emt_names = ("none", *emt_names)
    voltages = tuple(
        dict.fromkeys(
            [v for _n, v, _p in points] + [v_nominal]
        )
    )
    energy = _energy_grid(
        emt_names,
        voltages,
        workload,
        tech,
        name="tradeoff-paper-points",
        filters=(
            lambda coords: (coords["emt"], coords["voltage"]) in wanted,
        ),
    )
    baseline = energy[("none", v_nominal)]
    return [
        EmtOperatingPoint(
            emt_name=emt_name,
            v_min_safe=voltage,
            saving_vs_nominal=1.0 - energy[(emt_name, voltage)] / baseline,
        )
        for emt_name, voltage, _paper_pct in points
    ]


def _build_policy(
    points: list[EmtOperatingPoint], v_nominal: float
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
