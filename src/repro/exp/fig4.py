"""Experiment E2 — Fig 4a/b/c: SNR vs supply voltage per EMT.

The paper's main quality result (Section VI-A): sweep the data-memory
supply from 0.90 V down to 0.50 V; at each point draw Monte-Carlo
stuck-at fault maps at the profiled BER, run every application with

* (a) no protection,
* (b) DREAM,
* (c) ECC SEC/DED,

and average the output SNR in dB over the runs.  The published shape:

* all techniques hold the error-free ceiling down to ~0.8 V;
* unprotected memory degrades first and fastest;
* ECC is slightly ahead of DREAM between 0.65 and 0.55 V (it corrects
  *any* single error, DREAM only those under the mask);
* below 0.55 V multi-bit errors defeat SEC/DED (detect-only) while DREAM
  keeps reconstructing the significant MSBs, so the curves cross.

The (app, voltage) grid is expressed as a campaign spec
(:func:`fig4_spec`); a ``figure = "fig4"`` experiment runs it through
:class:`repro.api.Session`, so sweeps parallelise across workers and
resume from a result store, and :func:`fig4_result_from_records` reduces
the records to a :class:`Fig4Result`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..campaign.evaluators import geometry_to_dict, technology_to_dict
from ..campaign.spec import CampaignSpec
from ..energy.technology import PAPER_VOLTAGE_GRID, TECH_32NM_LP, Technology
from ..errors import ExperimentError
from .common import ExperimentConfig, MonteCarloResult, validate_registry_names

__all__ = [
    "Fig4Result",
    "fig4_result_from_records",
    "fig4_spec",
]


@dataclass
class Fig4Result:
    """SNR-vs-voltage surfaces for every (application, EMT) pair."""

    voltages: list[float] = field(default_factory=list)
    #: ``points[app][voltage]`` -> per-EMT statistics.
    points: dict[str, dict[float, MonteCarloResult]] = field(
        default_factory=dict
    )
    config: ExperimentConfig | None = None

    def series(self, app_name: str, emt_name: str) -> list[float]:
        """One plotted curve: mean SNR per voltage for (app, EMT)."""
        if app_name not in self.points:
            raise ExperimentError(f"no data for app {app_name!r}")
        per_voltage = self.points[app_name]
        return [
            per_voltage[v].snr_mean_db[emt_name] for v in self.voltages
        ]


def fig4_spec(
    app_names: tuple[str, ...],
    emt_names: tuple[str, ...] = ("none", "dream", "secded"),
    voltages: tuple[float, ...] = PAPER_VOLTAGE_GRID,
    config: ExperimentConfig | None = None,
    tech: Technology = TECH_32NM_LP,
    name: str = "fig4",
) -> CampaignSpec:
    """The Fig 4 grid as a declarative campaign spec.

    Axes are (app, voltage); the EMT set is a *fixed* parameter because
    the paper's fairness rule — "all the EMTs are tested reusing the same
    set of error locations/mappings" — requires the techniques of one
    grid point to share defect samples, so they cannot be independent
    points.
    """
    config = config or ExperimentConfig()
    validate_registry_names(app_names=app_names, emt_names=emt_names)
    return CampaignSpec(
        name=name,
        kind="montecarlo",
        axes={"app": tuple(app_names), "voltage": tuple(voltages)},
        fixed={
            "emts": tuple(emt_names),
            "records": config.records,
            "duration_s": config.duration_s,
            "n_runs": config.n_runs,
            "seed": config.seed,
            "snr_cap_db": config.snr_cap_db,
            "geometry": geometry_to_dict(config.geometry),
            "tech": technology_to_dict(tech),
        },
    )


def fig4_result_from_records(
    records: list[dict],
    app_names: tuple[str, ...],
    voltages: tuple[float, ...],
    config: ExperimentConfig | None = None,
) -> Fig4Result:
    """Reassemble a :class:`Fig4Result` from ``montecarlo`` records.

    ``records`` are campaign records of a :func:`fig4_spec` grid — live
    from :func:`repro.campaign.run_campaign` or reloaded from a result
    store.  This is the experiment API's Fig 4 (and trade-off) reducer.
    """
    by_point = {
        (rec["params"]["app"], rec["params"]["voltage"]): rec["result"]
        for rec in records
        if rec.get("status") == "ok"
    }
    result = Fig4Result(voltages=sorted(voltages), config=config)
    for app_name in app_names:
        per_voltage: dict[float, MonteCarloResult] = {}
        for voltage in result.voltages:
            payload = by_point.get((app_name, voltage))
            if payload is None:
                raise ExperimentError(
                    f"fig4 records are missing grid point "
                    f"({app_name!r}, {voltage})"
                )
            per_voltage[voltage] = MonteCarloResult(
                snr_mean_db=dict(payload["snr_mean_db"]),
                snr_std_db=dict(payload["snr_std_db"]),
                n_runs=payload["n_runs"],
            )
        result.points[app_name] = per_voltage
    return result
