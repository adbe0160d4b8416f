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

The (app, stuck value, bit position) grid is expressed as a campaign
spec (:func:`fig2_spec`); a ``figure = "fig2"`` experiment runs it
through :class:`repro.api.Session`, so the 160-point paper grid
parallelises across workers and resumes from a result store.

:func:`run_fig2` is the in-process alternative: all 32 (stuck value,
bit position) configurations of one application stack into a single
:func:`~repro.mem.faults.position_fault_map_batch` and flow through the
memory fabric as one ``(32, n_words)`` batch per record — the same
numbers (the sweep is deterministic), an order of magnitude less Python
overhead (see PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..campaign.evaluators import geometry_to_dict
from ..campaign.spec import CampaignSpec
from ..emt.base import NoProtection
from ..errors import ExperimentError
from ..mem.fabric import MemoryFabric
from ..mem.faults import position_fault_map_batch
from .common import ExperimentConfig, load_corpus, validate_registry_names

__all__ = [
    "Fig2Result",
    "fig2_result_from_records",
    "fig2_spec",
    "run_fig2",
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


def fig2_spec(
    app_names: tuple[str, ...],
    config: ExperimentConfig | None = None,
    name: str = "fig2",
) -> CampaignSpec:
    """The Fig 2 grid as a declarative campaign spec.

    Axes are (app, stuck value, bit position); the sweep is
    deterministic, so points carry no seed.
    """
    config = config or ExperimentConfig()
    validate_registry_names(app_names=app_names)
    return CampaignSpec(
        name=name,
        kind="bit_position",
        axes={
            "app": tuple(app_names),
            "stuck_value": (0, 1),
            "position": tuple(range(_DATA_BITS)),
        },
        fixed={
            "records": config.records,
            "duration_s": config.duration_s,
            "snr_cap_db": config.snr_cap_db,
            "geometry": geometry_to_dict(config.geometry),
            "data_bits": _DATA_BITS,
        },
    )


def run_fig2(
    app_names: tuple[str, ...] = (
        "dwt",
        "matrix_filter",
        "compressed_sensing",
        "morphology",
        "delineation",
    ),
    config: ExperimentConfig | None = None,
) -> Fig2Result:
    """Run the Fig 2 bit-significance sweep in-process, trial-batched.

    All 32 (stuck value, bit position) fault configurations of one
    application stack into a single batched fault map, so each record
    makes exactly one pipeline pass instead of 32.  Configuration order
    matches the :func:`fig2_spec` grid (stuck value outer, position
    inner), and the per-configuration corpus mean reduces the same
    per-record SNRs — the curves equal a ``figure = "fig2"`` experiment
    run through :class:`repro.api.Session`, which is the path to use for
    parallel or resumable sweeps.

    Args:
        app_names: applications to characterise (default: the paper's
            five case studies).
        config: experiment knobs; Fig 2 is deterministic (no Monte
            Carlo), so only ``records`` and ``duration_s`` matter.

    Returns:
        A :class:`Fig2Result` with one SNR series per (app, stuck value).
    """
    config = config or ExperimentConfig()
    validate_registry_names(app_names=app_names)
    # Shared per-process instances keep the clean reference outputs
    # warm across invocations.
    from ..apps.registry import cached_app

    corpus = load_corpus(config)
    configurations = [
        (position, stuck_value)
        for stuck_value in (0, 1)
        for position in range(_DATA_BITS)
    ]
    fault_map = position_fault_map_batch(
        config.geometry.n_words, _DATA_BITS, configurations
    )
    result = Fig2Result(config=config)
    for name in app_names:
        app = cached_app(name)
        per_record = []
        for samples in corpus.values():
            fabric = MemoryFabric(
                NoProtection(),
                fault_map=fault_map,
                geometry=config.geometry,
                collect_decode_stats=False,
            )
            outputs = app.run_batch(samples, fabric)
            per_record.append(
                app.output_snr_batch(
                    samples, outputs, cap_db=config.snr_cap_db
                )
            )
        # (n_records, 32) -> per-configuration corpus mean.
        means = np.mean(np.stack(per_record, axis=0), axis=0)
        result.snr_db[name] = {
            0: [float(v) for v in means[:_DATA_BITS]],
            1: [float(v) for v in means[_DATA_BITS:]],
        }
    return result


def fig2_result_from_records(
    records: list[dict],
    app_names: tuple[str, ...],
    config: ExperimentConfig | None = None,
) -> Fig2Result:
    """Reassemble a :class:`Fig2Result` from ``bit_position`` records.

    ``records`` are campaign records of a :func:`fig2_spec` grid — live
    from :func:`repro.campaign.run_campaign` or reloaded from a result
    store.  This is the experiment API's Fig 2 reducer.
    """
    by_point = {
        (
            rec["params"]["app"],
            rec["params"]["stuck_value"],
            rec["params"]["position"],
        ): rec["result"]["snr_db"]
        for rec in records
        if rec.get("status") == "ok"
    }
    result = Fig2Result(config=config)
    try:
        for name in app_names:
            result.snr_db[name] = {
                stuck: [
                    by_point[(name, stuck, position)]
                    for position in range(_DATA_BITS)
                ]
                for stuck in (0, 1)
            }
    except KeyError as exc:
        raise ExperimentError(
            f"fig2 records are missing grid point {exc.args[0]!r}"
        ) from exc
    return result
