"""Point evaluators: map a campaign point's parameters to a result dict.

Each evaluator *kind* scores one family of grid points with a pure
function from JSON-serialisable parameters to a JSON-serialisable result,
so points can be fanned out across worker processes and their results
cached by content hash.  The built-in kinds cover the paper's three
methodologies:

* ``montecarlo`` — the Section V protocol: stuck-at fault maps drawn at
  the technology's BER(V), every EMT of the point sharing each run's
  defect sample (Fig 4's grid);
* ``bit_position`` — Fig 2's deterministic sweep: every bit position
  of every data word stuck at '0' and at '1' on one record, no EMT;
* ``energy`` — the Section VI-B accounting model: workload energy of one
  EMT-protected memory system at one supply voltage;
* ``mission`` — the :mod:`repro.runtime` closed-loop mission simulator:
  one (policy, scenario) pair per point, scoring lifetime and per-window
  quality, so policy x scenario grids sweep through the same parallel
  runner/store/Pareto machinery as the paper's static grids;
* ``cohort`` — the :mod:`repro.cohort` fleet simulator: one (policy,
  cohort) pair per point, scoring *population* statistics (survival
  fraction, lifetime/quality percentiles), so policy x cohort grids run
  through the same machinery and feed
  :func:`repro.cohort.analytics.population_frontier`.

Custom kinds can be added with :func:`register_evaluator`.

Seeding: ``montecarlo`` derives its per-point stream from
``(seed, grid_seed(app, voltage))`` with the same CRC-32 grid seed the
serial Fig 4 driver has always used, so campaign results are bit-identical
to the historical serial sweeps and independent of execution order.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict
from functools import lru_cache
from typing import Any

import numpy as np

# The model-object serde helpers historically lived here; they moved to
# the shared :mod:`repro.api.serde` layer with the unified experiment
# API and are re-exported below (``__all__``) for compatibility.
from ..api.serde import (
    geometry_from_dict,
    geometry_to_dict,
    technology_from_dict,
    technology_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from ..apps.base import clean_fabric
from ..apps.registry import cached_app, make_app
from ..emt import make_emt
from ..emt.base import NoProtection
from ..energy.accounting import EnergySystemModel, Workload
from ..errors import CampaignError
from ..mem.fabric import MemoryFabric
from ..mem.faults import position_fault_map_batch
from ..signals.dataset import load_record
from ..signals.metrics import SNR_CAP_DB
from ..soc.config import SoCConfig
from .spec import CampaignPoint

__all__ = [
    "EVALUATORS",
    "EVALUATION_HINTS",
    "evaluation_hints",
    "register_evaluator",
    "evaluate_point",
    "grid_seed",
    "technology_to_dict",
    "technology_from_dict",
    "geometry_to_dict",
    "geometry_from_dict",
    "workload_to_dict",
    "workload_from_dict",
    "measured_workload",
]

#: Registry of evaluator kinds, populated by :func:`register_evaluator`.
EVALUATORS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {}

#: Process-local execution hints for evaluators.  Hints are *never*
#: part of a point's parameters — they must not influence results or
#: content hashes — only how a point is computed (e.g.
#: ``cohort_workers``: patient-level fan-out inside a ``cohort`` point
#: when the campaign itself runs inline).  Set them with
#: :func:`evaluation_hints`; worker processes of a multiprocessing
#: campaign never see hints (pool workers must not nest pools).
EVALUATION_HINTS: dict[str, Any] = {}


@contextmanager
def evaluation_hints(**hints: Any) -> Iterator[None]:
    """Scope process-local evaluation hints around in-process campaigns.

    Example: the experiment session wraps an inline cohort campaign in
    ``evaluation_hints(cohort_workers=4)`` so each policy point fans its
    patients across four worker processes — the execution grain the
    historical cohort CLI used — without touching the point's
    parameters or stored identity.
    """
    previous = dict(EVALUATION_HINTS)
    EVALUATION_HINTS.update(hints)
    try:
        yield
    finally:
        EVALUATION_HINTS.clear()
        EVALUATION_HINTS.update(previous)


def register_evaluator(
    kind: str,
) -> Callable[[Callable[[dict], dict]], Callable[[dict], dict]]:
    """Decorator registering a point evaluator under ``kind``.

    Registration is per-process.  Worker processes created with the
    ``fork`` start method (the Linux default) inherit custom kinds
    registered in the parent; under ``spawn`` (macOS/Windows default)
    workers re-import this module and only see kinds registered at
    import time — register custom kinds in an importable module (not in
    ``__main__`` scripting code) or run those campaigns with
    ``n_workers=1``.
    """

    def _register(func: Callable[[dict], dict]) -> Callable[[dict], dict]:
        if kind in EVALUATORS:
            raise CampaignError(f"evaluator kind {kind!r} already registered")
        EVALUATORS[kind] = func
        return func

    return _register


def evaluate_point(point: CampaignPoint) -> dict[str, Any]:
    """Dispatch one campaign point to its registered evaluator."""
    evaluator = EVALUATORS.get(point.kind)
    if evaluator is None:
        raise CampaignError(
            f"unknown evaluator kind {point.kind!r}; "
            f"available: {sorted(EVALUATORS)}"
        )
    return evaluator(point.params)


def grid_seed(app_name: str, voltage: float) -> int:
    """Deterministic per-(app, voltage) Monte-Carlo seed.

    ``hash()`` is salted per process, which would break run-to-run (and
    worker-vs-parent) reproducibility, so the seed is a CRC-32 of the
    point's coordinates — the exact formula the serial Fig 4 driver used,
    keeping campaign results bit-identical to the historical sweeps.
    """
    return zlib.crc32(f"{app_name}:{round(voltage * 100)}".encode())


def measured_workload(
    app_name: str = "dwt",
    record: str = "100",
    duration_s: float = 10.0,
    soc: SoCConfig | None = None,
) -> Workload:
    """Derive an accounting workload from a real application run.

    Runs the application against a clean fabric, reads the access
    counters, and converts the access volume to active processing time
    with the SoC cycle model (accesses dominate the inner loops of these
    kernels, so cycles-per-access approximates the activity window).
    """
    soc = soc or SoCConfig()
    app = make_app(app_name)
    samples = load_record(record, duration_s=duration_s).samples
    fabric = clean_fabric()
    app.run(samples, fabric)
    n_reads = fabric.stats.data_reads
    n_writes = fabric.stats.data_writes
    cycles = (n_reads + n_writes) * soc.cycles_per_access
    return Workload(
        n_reads=n_reads,
        n_writes=n_writes,
        duration_s=cycles / soc.clock_hz,
    )


@lru_cache(maxsize=8)
def _cached_corpus(
    records: tuple[str, ...], duration_s: float
) -> dict[str, np.ndarray]:
    """Per-process record cache: synthesis dominates tiny grid points."""
    return {
        name: load_record(name, duration_s=duration_s).samples
        for name in records
    }


#: Per-process workload-measurement cache: one energy grid shares the
#: same measured run across all its (EMT, voltage) points.
_cached_workload = lru_cache(maxsize=32)(measured_workload)


def _soc_from(params: dict[str, Any]) -> SoCConfig:
    payload = params.get("soc")
    if payload is None:
        return SoCConfig()
    return SoCConfig(**payload)


# --------------------------------------------------------------------------
# Built-in evaluator kinds
# --------------------------------------------------------------------------


@register_evaluator("montecarlo")
def _eval_montecarlo(params: dict[str, Any]) -> dict[str, Any]:
    """Section V Monte-Carlo protocol at one (app, voltage) point.

    Parameters: ``app``, ``voltage``, ``emts`` (grouped so every EMT sees
    the same defect samples, as the paper requires), ``records``,
    ``duration_s``, ``n_runs``, ``seed``, and optionally ``snr_cap_db``,
    ``tech`` and ``geometry`` dicts.
    """
    # Imported lazily: repro.exp depends on repro.campaign at module
    # level, so the reverse edge must resolve at call time.
    from ..exp.common import ExperimentConfig, run_monte_carlo

    app_name = params["app"]
    voltage = params["voltage"]
    tech = technology_from_dict(params.get("tech"))
    config = ExperimentConfig(
        records=tuple(params["records"]),
        duration_s=params["duration_s"],
        n_runs=params["n_runs"],
        seed=params.get("seed", ExperimentConfig.seed),
        snr_cap_db=params.get("snr_cap_db", SNR_CAP_DB),
        geometry=geometry_from_dict(params.get("geometry")),
    )
    corpus = _cached_corpus(config.records, config.duration_s)
    emts = {name: make_emt(name) for name in params["emts"]}
    # The shared per-process instance keeps clean reference outputs warm
    # across the worker's points (the historical per-point instance
    # recomputed them for every voltage).
    result = run_monte_carlo(
        cached_app(app_name),
        emts,
        tech.ber(voltage),
        config,
        corpus,
        grid_seed(app_name, voltage),
    )
    return {
        "snr_mean_db": result.snr_mean_db,
        "snr_std_db": result.snr_std_db,
        "n_runs": result.n_runs,
    }


@register_evaluator("bit_position")
def _eval_bit_position(params: dict[str, Any]) -> dict[str, Any]:
    """Fig 2 methodology: each bit of every data word stuck at '0'/'1'.

    Parameters: ``app``, ``record``, ``duration_s``, and optionally
    ``snr_cap_db``/``geometry``/``data_bits``.  All ``2 * data_bits``
    (stuck value, position) configurations — stuck value outer,
    position inner — stack into one batched fault map, so the point is
    a single pipeline pass over its record.  Returns ``snr_db``, the
    per-configuration SNRs in that order.  Deterministic — no seed
    involved.
    """
    geometry = geometry_from_dict(params.get("geometry"))
    data_bits = params.get("data_bits", 16)
    samples = load_record(
        params["record"], duration_s=params["duration_s"]
    ).samples
    fault_map = position_fault_map_batch(
        geometry.n_words,
        data_bits,
        [
            (position, stuck_value)
            for stuck_value in (0, 1)
            for position in range(data_bits)
        ],
    )
    fabric = MemoryFabric(
        NoProtection(),
        fault_map=fault_map,
        geometry=geometry,
        collect_decode_stats=False,
    )
    app = cached_app(params["app"])
    outputs = app.run_batch(samples, fabric)
    snrs = app.output_snr_batch(
        samples, outputs, cap_db=params.get("snr_cap_db", SNR_CAP_DB)
    )
    return {"snr_db": [float(v) for v in snrs]}


@register_evaluator("mission")
def _eval_mission(params: dict[str, Any]) -> dict[str, Any]:
    """Adaptive-runtime mission at one (policy, scenario) point.

    Parameters: a ``policy`` (registry name or ``{"name", "params"}``
    dict) plus either a ``scenario`` registry name or a full ``mission``
    dict (:meth:`repro.runtime.MissionSpec.to_dict` form).  Optional:
    ``duration_scale`` (shrink the timeline, preserving its shape),
    ``seed``/``window_s`` overrides, and the simulator fidelity knobs
    ``n_probe``/``probe_duration_s``.  Returns the
    :class:`~repro.runtime.MissionResult` metrics dict (lifetime, mean/
    worst/p5 quality, switches, violations, energy).
    """
    # Imported lazily: repro.runtime prices windows through this module,
    # so the reverse edge must resolve at call time.
    from ..runtime import MissionSimulator, policy_from_dict, resolve_mission
    from ..runtime.mission import MissionSpec

    if "mission" in params:
        base = MissionSpec.from_dict(params["mission"])
    elif "scenario" in params:
        base = params["scenario"]
    else:
        raise CampaignError(
            "mission point needs a 'scenario' name or a 'mission' dict"
        )
    spec = resolve_mission(
        base,
        duration_scale=params.get("duration_scale", 1.0),
        seed=params.get("seed"),
        window_s=params.get("window_s"),
    )
    if "policy" not in params:
        raise CampaignError(
            "mission point needs a 'policy' (registry name or "
            "{'name', 'params'} dict)"
        )
    simulator = MissionSimulator(
        spec,
        n_probe=params.get("n_probe", 3),
        probe_duration_s=params.get("probe_duration_s", 4.0),
    )
    result = simulator.run(policy_from_dict(params["policy"]))
    return result.to_dict()


@register_evaluator("cohort")
def _eval_cohort(params: dict[str, Any]) -> dict[str, Any]:
    """Population fleet at one (policy, cohort) point.

    Parameters: a ``policy`` (registry name or ``{"name", "params"}``
    dict) plus a ``cohort`` dict
    (:meth:`repro.cohort.CohortSpec.to_dict` form).  Optional: ``size``/
    ``duration_scale``/``seed`` overrides on the cohort,
    ``allow_failed_patients`` (see below), and the simulator fidelity
    knobs ``n_probe``/``probe_duration_s``.  Patients run serially
    inside this worker by default — the campaign runner already fans
    *points* across processes, and the shared disk calibration cache
    keeps fleet-wide calibration work deduplicated either way; an
    inline campaign may instead fan patients across processes via the
    ``cohort_workers`` entry of :data:`EVALUATION_HINTS` (results are
    bit-identical for any worker count).

    Returns the :meth:`~repro.cohort.FleetResult.summary` population
    metrics plus a ``"survival"`` battery-survival curve (``[t_days,
    fraction_alive]`` pairs — deterministic, so it stores and resumes
    like any other metric).  A point with any failed patient raises by
    default, so the campaign records it as failed (and retries it on
    the next run); with ``allow_failed_patients`` true the point
    instead degrades gracefully — population statistics cover the
    surviving patients and the summary carries a ``"failures"`` list —
    which is how the experiment API runs fleets.
    """
    # Imported lazily: repro.cohort builds on repro.runtime, which
    # prices windows through this module.
    from ..cohort import CohortSpec, FleetSimulator, survival_curve

    if "cohort" not in params:
        raise CampaignError("cohort point needs a 'cohort' dict")
    if "policy" not in params:
        raise CampaignError(
            "cohort point needs a 'policy' (registry name or "
            "{'name', 'params'} dict)"
        )
    payload = dict(params["cohort"])
    for key in ("size", "duration_scale", "seed"):
        if key in params:
            payload[key] = params[key]
    fleet = FleetSimulator(
        CohortSpec.from_dict(payload),
        n_probe=params.get("n_probe", 3),
        probe_duration_s=params.get("probe_duration_s", 4.0),
    )
    result = fleet.run(
        params["policy"],
        n_workers=int(EVALUATION_HINTS.get("cohort_workers", 1)),
    )
    failures = result.failures()
    if failures and not params.get("allow_failed_patients", False):
        first = failures[0]
        raise CampaignError(
            f"{len(failures)} of {len(result.rows)} patients failed; "
            f"first (patient {first['patient']}): {first['error']}"
        )
    summary = result.summary()
    # Wall-clock and cache-occupancy figures vary run to run; stored
    # campaign results carry only the deterministic population metrics.
    for volatile in ("elapsed_s", "patients_per_s", "cache"):
        summary.pop(volatile, None)
    if failures:
        summary["failures"] = [
            {"patient": row["patient"], "error": row["error"]}
            for row in failures
        ]
    summary["survival"] = [
        [t_days, alive]
        for t_days, alive in survival_curve(result.ok_rows(), n_points=9)
    ] if result.ok_rows() else []
    return summary


@register_evaluator("energy")
def _eval_energy(params: dict[str, Any]) -> dict[str, Any]:
    """Section VI-B accounting at one (EMT, voltage) point.

    Parameters: ``emt``, ``voltage``, a ``workload`` dict *or* a
    ``workload_app`` name (measured in-worker via
    :func:`measured_workload`, honouring an optional ``soc`` dict and
    ``workload_record``/``workload_duration_s``), plus optional ``tech``
    and ``mask_memory_scaled``.
    """
    tech = technology_from_dict(params.get("tech"))
    if "workload" in params:
        workload = workload_from_dict(params["workload"])
    elif "workload_app" in params:
        workload = _cached_workload(
            app_name=params["workload_app"],
            record=params.get("workload_record", "100"),
            duration_s=params.get("workload_duration_s", 10.0),
            soc=_soc_from(params),
        )
    else:
        raise CampaignError(
            "energy point needs a 'workload' dict or a 'workload_app' name"
        )
    model = EnergySystemModel(
        make_emt(params["emt"]),
        tech=tech,
        mask_memory_scaled=params.get("mask_memory_scaled", True),
    )
    breakdown = model.evaluate(params["voltage"], workload)
    payload = asdict(breakdown)
    payload["total_pj"] = breakdown.total_pj
    return payload
