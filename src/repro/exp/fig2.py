"""Experiment E1 — Fig 2: SNR vs data-bit position of injected errors.

The paper's significance characterisation (Section III): for every bit
position 0..15 of the 16-bit data words, stick that bit of *all* data
buffers successively at '1' and at '0', run each application, and record
the output SNR (Formula 1) averaged over ECG records with different
pathologies.  No EMT is involved — this experiment is what motivates
DREAM's asymmetric MSB protection:

* SNR decreases monotonically (on trend) as the stuck bit moves toward
  the MSB;
* stuck-at-1 errors on MSBs hurt *less* than stuck-at-0 for apps whose
  samples are predominantly negative (the error is hidden by the sign
  run) and vice versa for predominantly positive data;
* matrix filtering sits well below the other curves because each output
  element depends on a full row and column of inputs.

The grid is expressed as a campaign spec (:func:`fig2_spec`) over
(app, record): one point stacks all 32 (stuck value, bit position)
configurations into a single
:func:`~repro.mem.faults.position_fault_map_batch` and makes one batched
pipeline pass over its record.  A ``figure = "fig2"`` experiment runs it
through :class:`repro.api.Session`, so the paper grid parallelises
across workers and resumes from a result store, and
:func:`fig2_result_from_records` averages each configuration over the
record corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..campaign.evaluators import geometry_to_dict
from ..campaign.spec import CampaignSpec
from ..errors import ExperimentError
from .common import ExperimentConfig, validate_registry_names

__all__ = [
    "Fig2Result",
    "fig2_result_from_records",
    "fig2_spec",
]

#: Width of the paper's data words (and hence of the Fig 2 sweep).
_DATA_BITS = 16


@dataclass
class Fig2Result:
    """SNR series per application and stuck value.

    ``snr_db[app_name][stuck_value]`` is a length-16 list: the average
    output SNR with bit ``position`` of every data word stuck at
    ``stuck_value``.
    """

    positions: list[int] = field(default_factory=lambda: list(range(16)))
    snr_db: dict[str, dict[int, list[float]]] = field(default_factory=dict)
    config: ExperimentConfig | None = None

    def series(self, app_name: str, stuck_value: int) -> list[float]:
        """One plotted curve of Fig 2."""
        if app_name not in self.snr_db:
            raise ExperimentError(f"no data for app {app_name!r}")
        return self.snr_db[app_name][stuck_value]


def _records(config: ExperimentConfig) -> tuple[str, ...]:
    """The corpus records, first occurrence first (a repeat adds none)."""
    return tuple(dict.fromkeys(config.records))


def fig2_spec(
    app_names: tuple[str, ...],
    config: ExperimentConfig | None = None,
    name: str = "fig2",
) -> CampaignSpec:
    """The Fig 2 grid as a declarative campaign spec.

    Axes are (app, record); each point scores every (stuck value, bit
    position) configuration on its record.  The sweep is deterministic,
    so points carry no seed.
    """
    config = config or ExperimentConfig()
    validate_registry_names(app_names=app_names)
    return CampaignSpec(
        name=name,
        kind="bit_position",
        axes={"app": tuple(app_names), "record": _records(config)},
        fixed={
            "duration_s": config.duration_s,
            "snr_cap_db": config.snr_cap_db,
            "geometry": geometry_to_dict(config.geometry),
            "data_bits": _DATA_BITS,
        },
    )


def fig2_result_from_records(
    records: list[dict],
    app_names: tuple[str, ...],
    config: ExperimentConfig | None = None,
) -> Fig2Result:
    """Reassemble a :class:`Fig2Result` from ``bit_position`` records.

    ``records`` are campaign records of a :func:`fig2_spec` grid — live
    from :func:`repro.campaign.run_campaign` or reloaded from a result
    store.  Each holds one record's 32 SNRs (stuck value outer, position
    inner); a configuration's curve value is their mean over the corpus.
    This is the experiment API's Fig 2 reducer.
    """
    record_names = _records(config or ExperimentConfig())
    by_point = {
        (rec["params"]["app"], rec["params"]["record"]):
            rec["result"]["snr_db"]
        for rec in records
        if rec.get("status") == "ok"
    }
    result = Fig2Result(config=config)
    try:
        for name in app_names:
            per_record = [by_point[(name, record)] for record in record_names]
            means = [
                float(np.mean([snrs[i] for snrs in per_record]))
                for i in range(2 * _DATA_BITS)
            ]
            result.snr_db[name] = {
                0: means[:_DATA_BITS],
                1: means[_DATA_BITS:],
            }
    except KeyError as exc:
        raise ExperimentError(
            f"fig2 records are missing grid point {exc.args[0]!r}"
        ) from exc
    return result
