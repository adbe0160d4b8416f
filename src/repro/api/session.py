"""The :class:`Session` facade: plan, execute and reduce experiments.

A session turns a declarative :class:`~repro.api.schema.Experiment`
into campaign specs (*planning*), executes every campaign through
:func:`repro.campaign.runner.run_campaign` on a pluggable execution
backend, persists results in content-hash-keyed
:class:`~repro.campaign.store.ResultStore` files, and wraps the
outcome in a uniform :class:`~repro.api.results.ResultHandle`.

Every workload kind flows through the same spine:

* ``figure`` experiments plan the historical campaign grids
  (:func:`repro.exp.fig2.fig2_spec`, :func:`repro.exp.fig4.fig4_spec`,
  :func:`repro.exp.energy_table.energy_spec`) and reduce records back
  to the historical result objects;
* ``sweep`` experiments plan the exact quality + per-app energy grids
  ``repro sweep`` always ran — point content hashes are unchanged, so
  existing stores resume;
* ``mission`` and ``cohort`` experiments plan one campaign over the
  policy axis, evaluated by the ``mission``/``cohort`` evaluator kinds.

Backends decide *how* campaigns run: ``inline`` executes in-process,
``multiprocessing`` fans points across a worker pool.  Pick one per
session (``Session(backend=...)``) or per experiment (the ``backend``
field); register custom backends (e.g. a remote executor) with
:func:`register_backend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .. import obs
from ..campaign.runner import (
    CampaignResult,
    ProgressFn,
    run_campaign,
    run_metrics,
)
from ..campaign.spec import CampaignSpec
from ..campaign.store import ResultStore
from ..errors import ExperimentError, ExperimentSpecError
from . import serde
from .results import CampaignRun, ResultHandle
from .schema import (
    CohortParams,
    EnergyParams,
    Experiment,
    Fig2Params,
    Fig4Params,
    MissionParams,
    SweepParams,
    TradeoffParams,
    load_experiment,
)

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "MultiprocessingBackend",
    "BACKENDS",
    "register_backend",
    "backend_names",
    "make_backend",
    "PlannedCampaign",
    "Session",
]


# --------------------------------------------------------------------------
# Execution backends
# --------------------------------------------------------------------------


class ExecutionBackend(ABC):
    """How a session executes one campaign spec.

    Backends wrap :func:`repro.campaign.runner.run_campaign` with an
    execution strategy; they never change *what* runs (the spec and its
    point hashes), only where/how the points are evaluated — so results
    are bit-identical across backends.
    """

    #: Registry key; overridden by subclasses.
    name: str = "abstract"

    @abstractmethod
    def execute(
        self,
        spec: CampaignSpec,
        store: ResultStore | None = None,
        resume: bool = True,
        progress: ProgressFn | None = None,
    ) -> CampaignResult:
        """Run one campaign and return its result."""


class InlineBackend(ExecutionBackend):
    """Serial in-process execution (no pool, per-point durability)."""

    name = "inline"

    def execute(
        self,
        spec: CampaignSpec,
        store: ResultStore | None = None,
        resume: bool = True,
        progress: ProgressFn | None = None,
    ) -> CampaignResult:
        """Run every point in this process, in grid order."""
        return run_campaign(
            spec, store=store, n_workers=1, progress=progress, resume=resume
        )


class MultiprocessingBackend(ExecutionBackend):
    """Fan campaign points across a ``multiprocessing`` pool."""

    name = "multiprocessing"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ExperimentSpecError(
                f"workers must be >= 1, got {workers}"
            )
        self.workers = workers

    def execute(
        self,
        spec: CampaignSpec,
        store: ResultStore | None = None,
        resume: bool = True,
        progress: ProgressFn | None = None,
    ) -> CampaignResult:
        """Run the campaign across the configured worker pool."""
        return run_campaign(
            spec,
            store=store,
            n_workers=self.workers,
            progress=progress,
            resume=resume,
        )


def _service_backend(workers: int) -> ExecutionBackend:
    """Factory of the ``service`` backend (lazy: breaks the import
    cycle — :mod:`repro.service` itself imports this module)."""
    from ..service.backend import ServiceBackend

    return ServiceBackend(workers=workers)


#: Registry of backend factories: name -> ``factory(workers) -> backend``.
BACKENDS: dict[str, Callable[[int], ExecutionBackend]] = {
    "inline": lambda workers: InlineBackend(),
    "multiprocessing": lambda workers: MultiprocessingBackend(workers),
    "service": _service_backend,
}


def register_backend(
    name: str, factory: Callable[[int], ExecutionBackend]
) -> None:
    """Register a custom execution backend under ``name``.

    ``factory`` receives the resolved worker count and returns a
    backend instance; experiments select it with ``backend = "name"``.
    """
    if not name:
        raise ExperimentSpecError("backend name must be non-empty")
    if name in BACKENDS:
        raise ExperimentSpecError(f"backend {name!r} already registered")
    BACKENDS[name] = factory


def backend_names() -> list[str]:
    """Names of all registered execution backends, sorted."""
    return sorted(BACKENDS)


def make_backend(name: str, workers: int) -> ExecutionBackend:
    """Instantiate a registered backend for ``workers`` processes."""
    if name not in BACKENDS:
        raise ExperimentSpecError(
            f"unknown execution backend {name!r}; "
            f"available: {backend_names()}"
        )
    return BACKENDS[name](workers)


# --------------------------------------------------------------------------
# Planning: Experiment -> campaign specs (+ reducers)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedCampaign:
    """One campaign an experiment expands to.

    Attributes:
        role: the campaign's role (``"main"``, or ``"quality"``/
            ``"energy"`` for sweeps).
        spec: the grid to run.
        store_name: result-store basename, or ``None`` for an ephemeral
            campaign.
        intra_point_hint: name of an :data:`~repro.campaign.evaluators.
            EVALUATION_HINTS` entry carrying the session's worker count
            *inside* each point.  When set (and no backend was named
            explicitly), the session runs this campaign inline and the
            evaluator fans out within points instead — the right grain
            when points are few but internally parallel (a cohort's
            patients).  Results are bit-identical either way.
    """

    role: str
    spec: CampaignSpec
    store_name: str | None = None
    intra_point_hint: str | None = None


@dataclass(frozen=True)
class _Plan:
    """A planned experiment: campaigns plus its reduction callbacks."""

    campaigns: tuple[PlannedCampaign, ...]
    reducer: Callable[[ResultHandle], Any]
    summariser: Callable[[ResultHandle], dict]
    framer: Callable[[ResultHandle], list] | None = None

    def handle(
        self, experiment: Experiment, runs: list[CampaignRun]
    ) -> ResultHandle:
        """Wrap executed campaigns in the experiment's result handle."""
        return ResultHandle(
            experiment, runs, reducer=self.reducer,
            summariser=self.summariser, framer=self.framer,
        )


def _experiment_config(
    records: tuple[str, ...],
    duration_s: float,
    seed: int | None,
    runs: int | None = None,
):
    """An :class:`ExperimentConfig` honouring an optional seed override."""
    from ..exp.common import ExperimentConfig

    kwargs: dict[str, Any] = dict(records=records, duration_s=duration_s)
    if runs is not None:
        kwargs["n_runs"] = runs
    if seed is not None:
        kwargs["seed"] = seed
    return ExperimentConfig(**kwargs)


def resolved_mission_spec(params: MissionParams, seed: int | None):
    """The :class:`~repro.runtime.mission.MissionSpec` a mission
    experiment simulates: scenario, then scaling, then overrides — the
    exact resolution order of the ``mission`` campaign evaluator."""
    from ..runtime.scenarios import scenario_spec

    spec = scenario_spec(params.scenario)
    if params.duration_scale != 1.0:
        spec = spec.scaled(params.duration_scale)
    overrides: dict[str, Any] = {}
    if params.window_s is not None:
        overrides["window_s"] = params.window_s
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        spec = replace(spec, **overrides)
    return spec


def _policy_axis(policies: tuple, n_rungs: int | None) -> tuple:
    """Expand policy tokens to JSON-safe payloads, validating each.

    ``"static-ladder"`` expands to one pinned static policy per
    operating-point rung (requires ``n_rungs``); other strings are
    parsed as CLI tokens; mappings pass through.  Every resulting
    payload is validated against the policy registry before any grid
    work starts — a typo must fail fast, not after a long campaign.
    """
    from ..runtime.policy import policy_from_dict, policy_from_token

    payloads: list[Any] = []
    for token in policies:
        if isinstance(token, str) and token == "static-ladder":
            if n_rungs is None:
                raise ExperimentSpecError(
                    "'static-ladder' is only valid for mission experiments"
                )
            payloads.extend(
                {"name": "static", "params": {"index": i}}
                for i in range(n_rungs)
            )
        elif isinstance(token, str):
            policy_from_token(token)  # fail fast on unknown policies
            payloads.append(serde.policy_payload(token))
        else:
            policy_from_dict(token)
            payloads.append(dict(token))
    return tuple(payloads)


def _plan_figure(experiment: Experiment) -> _Plan:
    """Plan a paper-figure experiment (fig2/fig4/energy/tradeoff)."""
    from ..energy.technology import PAPER_VOLTAGE_GRID
    from ..exp.energy_table import energy_analysis_from_records, energy_spec
    from ..exp.fig2 import fig2_result_from_records, fig2_spec
    from ..exp.fig4 import fig4_result_from_records, fig4_spec

    params = experiment.params
    store = experiment.store

    if isinstance(params, Fig2Params):
        config = _experiment_config(
            params.records, params.duration_s, experiment.seed
        )
        spec = fig2_spec(params.apps, config, name=experiment.name)
        reducer = lambda h: fig2_result_from_records(  # noqa: E731
            h.records, params.apps, config
        )
    elif isinstance(params, Fig4Params):
        config = _experiment_config(
            params.records, params.duration_s, experiment.seed, params.runs
        )
        spec = fig4_spec(
            params.apps, params.emts, params.voltages, config,
            name=experiment.name,
        )
        reducer = lambda h: fig4_result_from_records(  # noqa: E731
            h.records, params.apps, params.voltages, config
        )
    elif isinstance(params, EnergyParams):
        from ..campaign.evaluators import measured_workload

        if "none" not in params.emts:
            # Fail before any point runs: every overhead is measured
            # against this baseline.
            raise ExperimentError("the baseline 'none' must be included")
        workload = measured_workload(
            app_name=params.workload_app,
            record=params.workload_record,
            duration_s=params.workload_duration_s,
        )
        spec = energy_spec(
            params.emts, params.voltages, workload, name=experiment.name
        )
        reducer = lambda h: energy_analysis_from_records(  # noqa: E731
            h.records, params.emts, params.voltages, workload
        )
    elif isinstance(params, TradeoffParams):
        from ..exp.tradeoff import run_tradeoff

        config = _experiment_config(
            params.records, params.duration_s, experiment.seed, params.runs
        )
        spec = fig4_spec(
            (params.app,), params.emts, PAPER_VOLTAGE_GRID, config,
            name=experiment.name,
        )

        def reducer(h, _config=config):
            fig4 = fig4_result_from_records(
                h.records, (params.app,), PAPER_VOLTAGE_GRID, _config
            )
            return run_tradeoff(
                fig4,
                app_name=params.app,
                tolerance_db=params.tolerance_db,
                emt_names=params.emts,
            )
    else:  # pragma: no cover - schema enforces the union
        raise ExperimentSpecError(
            f"unknown figure params {type(params).__name__}"
        )

    return _Plan(
        campaigns=(PlannedCampaign("main", spec, store),),
        reducer=reducer,
        summariser=lambda h: {"figure": params.KIND},
    )


def _plan_sweep(experiment: Experiment) -> _Plan:
    """Plan a design-space-exploration sweep.

    The construction is byte-for-byte the grid ``repro sweep``
    historically built — one Monte-Carlo quality campaign plus one
    energy campaign per application, stored under ``<base>-quality`` /
    ``<base>-energy`` — so point content hashes (and therefore stored
    results) carry over unchanged.
    """
    from ..exp.fig4 import fig4_spec

    params: SweepParams = experiment.params
    if "none" not in params.emts:
        # Fail before the (possibly hours-long) campaign: the frontier
        # savings and operating points are measured against this baseline.
        raise ExperimentError(
            "the baseline 'none' must be included in the sweep's emts"
        )
    base = experiment.store or experiment.name
    config = _experiment_config(
        params.records, params.duration_s, experiment.seed, params.runs
    )
    quality = fig4_spec(
        app_names=params.apps,
        emt_names=params.emts,
        voltages=params.voltages,
        config=config,
        name=f"{base}-quality",
    )
    # One energy spec per app (workload energy is application-specific),
    # all sharing one store: a point's content hash is independent of
    # the rest of the app list, so stored energy results survive
    # app-list changes.
    energy = tuple(
        CampaignSpec(
            name=f"{base}-energy",
            kind="energy",
            axes={"emt": params.emts, "voltage": params.voltages},
            fixed={
                "workload_app": app,
                "workload_record": params.records[0],
                "workload_duration_s": params.duration_s,
            },
        )
        for app in params.apps
    )

    def reducer(h: ResultHandle) -> dict[str, Any]:
        from ..campaign.analysis import (
            extract_tradeoff,
            pareto_frontier,
            quality_energy_rows,
        )
        from ..errors import CampaignError

        records = h.records
        out: dict[str, Any] = {}
        for app in params.apps:
            rows = quality_energy_rows(records, app)
            entry: dict[str, Any] = {"rows": rows}
            try:
                entry["frontier"] = pareto_frontier(
                    rows, x_key="energy_pj", y_key="snr_db"
                )
                entry["points"] = extract_tradeoff(
                    rows,
                    tolerance_db=params.tolerance_db,
                    voltages=params.voltages,
                )
            except CampaignError as error:
                # A failed point can leave this app unanalysable (e.g.
                # no baseline at nominal supply); record it and keep
                # going so the other apps still reduce.
                entry["error"] = str(error)
            out[app] = entry
        return out

    def summariser(h: ResultHandle) -> dict:
        from dataclasses import asdict

        reduced = h.result()
        apps: dict[str, Any] = {}
        for app, entry in reduced.items():
            if "error" in entry:
                apps[app] = {"error": entry["error"]}
            else:
                apps[app] = {
                    "frontier": entry["frontier"],
                    "operating_points": [asdict(p) for p in entry["points"]],
                }
        return {"tolerance_db": params.tolerance_db, "apps": apps}

    def framer(h: ResultHandle) -> list[dict]:
        # The sweep's analysis substrate: quality joined with energy by
        # (app, EMT, voltage) — what the frontier/trade-off extractors
        # (and therefore ``handle.pareto("energy_pj", "snr_db")``) read.
        reduced = h.result()
        return [row for entry in reduced.values() for row in entry["rows"]]

    return _Plan(
        campaigns=(
            PlannedCampaign("quality", quality, f"{base}-quality"),
            *(
                PlannedCampaign("energy", spec, f"{base}-energy")
                for spec in energy
            ),
        ),
        reducer=reducer,
        summariser=summariser,
        framer=framer,
    )


def _plan_mission(experiment: Experiment) -> _Plan:
    """Plan a closed-loop mission policy comparison."""
    params: MissionParams = experiment.params
    spec = resolved_mission_spec(params, experiment.seed)
    n_rungs = len({(e, v) for e in spec.emts for v in spec.voltages})
    fixed: dict[str, Any] = {"scenario": params.scenario}
    if params.duration_scale != 1.0:
        fixed["duration_scale"] = params.duration_scale
    if params.window_s is not None:
        fixed["window_s"] = params.window_s
    if experiment.seed is not None:
        fixed["seed"] = experiment.seed
    fixed["n_probe"] = params.probe_runs
    fixed["probe_duration_s"] = params.probe_duration_s
    campaign = CampaignSpec(
        name=experiment.name,
        kind="mission",
        axes={"policy": _policy_axis(params.policies, n_rungs)},
        fixed=fixed,
    )

    def reducer(h: ResultHandle) -> list:
        from ..runtime.mission import MissionResult

        return [
            MissionResult.from_dict(rec["result"]) for rec in h.ok_records()
        ]

    return _Plan(
        campaigns=(PlannedCampaign("main", campaign, experiment.store),),
        reducer=reducer,
        summariser=lambda h: {
            "scenario": params.scenario,
            "policies": [rec["result"] for rec in h.ok_records()],
        },
    )


def cohort_spec_for(experiment: Experiment):
    """The :class:`~repro.cohort.CohortSpec` a cohort experiment
    simulates (the experiment name seeds nothing — patient draws depend
    on ``(seed, index)`` only, exactly as the historical CLI)."""
    from ..cohort import CohortSpec, PatientModel

    params: CohortParams = experiment.params
    model_kwargs: dict[str, Any] = {"scenario_mix": params.scenarios}
    if params.pathology is not None:
        model_kwargs["record_mix"] = params.pathology
    if params.environment is not None:
        model_kwargs["environment_mix"] = params.environment
    if params.shielding is not None:
        model_kwargs["shielding_mix"] = params.shielding
    if params.battery_cv is not None:
        model_kwargs["battery_cv"] = params.battery_cv
    if params.battery_clip is not None:
        model_kwargs["battery_clip"] = params.battery_clip
    return CohortSpec(
        name=experiment.name,
        size=params.size,
        model=PatientModel(**model_kwargs),
        duration_scale=params.duration_scale,
        seed=experiment.seed if experiment.seed is not None else 2016,
    )


def _plan_cohort(experiment: Experiment) -> _Plan:
    """Plan a population-fleet policy comparison."""
    params: CohortParams = experiment.params
    cohort = cohort_spec_for(experiment)
    fixed: dict[str, Any] = {
        "cohort": cohort.to_dict(),
        "n_probe": params.probe_runs,
        "probe_duration_s": params.probe_duration_s,
    }
    if params.allow_failed_patients:
        fixed["allow_failed_patients"] = True
    campaign = CampaignSpec(
        name=experiment.name,
        kind="cohort",
        axes={"policy": _policy_axis(params.policies, None)},
        fixed=fixed,
    )

    def reducer(h: ResultHandle) -> dict[str, Any]:
        from ..cohort import population_frontier

        summaries = [dict(rec["result"]) for rec in h.ok_records()]
        survival = {
            s["policy"]: [tuple(pair) for pair in s.pop("survival", [])]
            for s in summaries
        }
        scored = [s for s in summaries if "survival_fraction" in s]
        return {
            "summaries": summaries,
            "survival": survival,
            "frontier": population_frontier(scored) if scored else [],
        }

    def summariser(h: ResultHandle) -> dict:
        reduced = h.result()
        return {
            "policies": reduced["summaries"],
            "frontier": reduced["frontier"],
        }

    return _Plan(
        campaigns=(
            PlannedCampaign(
                "main", campaign, experiment.store,
                # Few policy points, many patients each: fan out at the
                # patient level (the historical `repro cohort` grain)
                # unless a backend was named explicitly.
                intra_point_hint="cohort_workers",
            ),
        ),
        reducer=reducer,
        summariser=summariser,
    )


#: ``kind`` -> planner.
_PLANNERS: dict[str, Callable[[Experiment], _Plan]] = {
    "figure": _plan_figure,
    "sweep": _plan_sweep,
    "mission": _plan_mission,
    "cohort": _plan_cohort,
}


# --------------------------------------------------------------------------
# The session facade
# --------------------------------------------------------------------------


class Session:
    """Run declarative experiments through one configured entry point.

    Args:
        backend: execution-backend name overriding every experiment's
            own ``backend`` field (``None`` defers to the experiment,
            falling back to ``inline`` for one worker and
            ``multiprocessing`` otherwise).
        workers: worker count overriding every experiment's ``workers``
            field (``None`` defers; final fallback is 1).
        store_dir: root directory for result stores (``None`` uses
            ``$REPRO_CAMPAIGN_DIR`` or the repo default).
        fresh: when true, ignore stored results — every point
            re-executes and supersedes its stored record.
        progress: optional per-point callback
            ``(n_done, n_total, record)``, applied to every campaign.

    Example:
        >>> from repro.api import Session, experiment_from_payload
        >>> exp = experiment_from_payload({
        ...     "version": 1, "kind": "figure", "name": "quick",
        ...     "figure": {"figure": "fig2", "apps": ["morphology"],
        ...                "records": ["100"], "duration_s": 2.0},
        ... })
        >>> handle = Session().run(exp)
        >>> len(handle.result().series("morphology", 1))
        16
    """

    def __init__(
        self,
        backend: str | None = None,
        workers: int | None = None,
        store_dir: Path | str | None = None,
        fresh: bool = False,
        progress: ProgressFn | None = None,
    ) -> None:
        self.backend = backend
        self.workers = workers
        self.store_dir = store_dir
        self.fresh = fresh
        self.progress = progress

    # -- resolution --------------------------------------------------------

    def _coerce(self, experiment: Experiment | Path | str) -> Experiment:
        if isinstance(experiment, (str, Path)):
            return load_experiment(experiment)
        return experiment

    def resolve_backend(
        self, experiment: Experiment
    ) -> tuple[str, int]:
        """The (backend name, worker count) this session would use."""
        workers = self.workers
        if workers is None:
            workers = experiment.workers if experiment.workers else 1
        name = self._explicit_backend(experiment)
        if name is None:
            name = "inline" if workers <= 1 else "multiprocessing"
        return name, workers

    def _explicit_backend(self, experiment: Experiment) -> str | None:
        """The backend named by the session or experiment, if any.

        An explicitly-named backend always wins — including over a
        planned campaign's :attr:`PlannedCampaign.intra_point_hint`
        preference, so e.g. a custom remote backend is honoured for
        cohort fleets too.
        """
        return self.backend or experiment.backend

    def _store_for(self, name: str | None) -> ResultStore | None:
        if name is None:
            return None
        return ResultStore.for_campaign(name, root=self.store_dir)

    # -- the facade --------------------------------------------------------

    def plan(self, experiment: Experiment | Path | str) -> list[PlannedCampaign]:
        """Expand an experiment into its campaign plan without running.

        Planning validates everything executable about the experiment —
        registry names, scenario/cohort construction, policy tokens —
        and is what ``repro validate``/``repro describe`` call.  (An
        ``energy`` figure measures its workload here; the measurement
        is cached per process.)
        """
        experiment = self._coerce(experiment)
        return list(_PLANNERS[experiment.kind](experiment).campaigns)

    def validate(self, experiment: Experiment | Path | str) -> Experiment:
        """Schema- and plan-validate an experiment; return it on success."""
        experiment = self._coerce(experiment)
        name, _workers = self.resolve_backend(experiment)
        if name not in BACKENDS:
            raise ExperimentSpecError(
                f"unknown execution backend {name!r}; "
                f"available: {backend_names()}"
            )
        self.plan(experiment)
        return experiment

    def run_id_for(self, experiment: Experiment | Path | str) -> str:
        """The content-hash-keyed trace/run id of an experiment.

        Stable across processes and machines (it derives from the
        experiment's canonical content hash), so a traced run's JSONL
        sink is addressable before, during, and after the run:
        ``repro report <run-id>``.
        """
        experiment = self._coerce(experiment)
        return f"{experiment.name}-{experiment.content_hash()[:12]}"

    def _progress_for(
        self,
        experiment: Experiment,
        planned: PlannedCampaign,
        on_progress: Callable[[dict], None] | None,
    ) -> ProgressFn | None:
        """Fan one campaign's per-point progress to both consumers.

        The session-level ``progress`` callback keeps its historical
        positional form; ``on_progress`` (per run) receives structured
        heartbeat events — the hook a job service can stream from.  On
        a traced run the same heartbeat also lands in the trace as a
        ``run.progress`` gauge (flushed at bounded staleness), so
        ``repro watch`` follows the run with no callback wiring at all.
        """
        traced = obs.enabled()
        if on_progress is None and not traced:
            return self.progress

        def heartbeat(done: int, total: int, record: dict) -> None:
            if self.progress is not None:
                self.progress(done, total, record)
            if traced:
                obs.heartbeat(
                    "run.progress", done,
                    experiment=experiment.name,
                    campaign=planned.spec.name,
                    role=planned.role,
                    total=total,
                )
            if on_progress is not None:
                on_progress(
                    {
                        "experiment": experiment.name,
                        "campaign": planned.spec.name,
                        "role": planned.role,
                        "done": done,
                        "total": total,
                        "status": record.get("status"),
                        "elapsed_s": record.get("elapsed_s"),
                    }
                )

        return heartbeat

    def run(
        self,
        experiment: Experiment | Path | str,
        fresh: bool | None = None,
        on_progress: Callable[[dict], None] | None = None,
    ) -> ResultHandle:
        """Execute an experiment and return its :class:`ResultHandle`.

        Campaigns run in plan order; stored points resume unless
        ``fresh`` (argument or session default) disables it.

        ``on_progress`` is the run-level heartbeat: a callable invoked
        after every completed point with one JSON-safe event dict
        (``experiment``, ``campaign``, ``role``, ``done``, ``total``,
        ``status``, ``elapsed_s``) — independent of the session-level
        ``progress`` callback, which still fires as well.

        When tracing is configured (``REPRO_TRACE_DIR`` or the CLI's
        ``--trace``), the run opens its own JSONL sink keyed by
        :meth:`run_id_for` and closes it on exit;
        :meth:`ResultHandle.telemetry` reports where it landed.
        """
        from ..campaign.evaluators import evaluation_hints

        experiment = self._coerce(experiment)
        plan = _PLANNERS[experiment.kind](experiment)
        backend_name, workers = self.resolve_backend(experiment)
        backend = make_backend(backend_name, workers)
        resume = not (self.fresh if fresh is None else fresh)

        runs: list[CampaignRun] = []
        with obs.run_lifecycle(
            self.run_id_for(experiment),
            name=experiment.name,
            kind=experiment.kind,
            spec_digest=experiment.content_hash(),
            attrs={
                "kind": experiment.kind,
                "backend": backend_name,
                "workers": workers,
            },
        ) as lifecycle, obs.span(
            "session.run",
            experiment=experiment.name,
            kind=experiment.kind,
            backend=backend_name,
            workers=workers,
        ):
            # Metrics cover every campaign finished so far.
            lifecycle.metrics.update(run_metrics([]))
            for planned in plan.campaigns:
                store = self._store_for(planned.store_name)
                progress = self._progress_for(
                    experiment, planned, on_progress
                )
                if (
                    planned.intra_point_hint
                    and workers > 1
                    and self._explicit_backend(experiment) is None
                ):
                    # Fan out *inside* each point (e.g. a cohort's
                    # patients across processes) rather than across
                    # the few points: the campaign itself runs inline
                    # so the hint stays in this process, and results
                    # are bit-identical.
                    with evaluation_hints(
                        **{planned.intra_point_hint: workers}
                    ):
                        result = InlineBackend().execute(
                            planned.spec, store=store, resume=resume,
                            progress=progress,
                        )
                else:
                    result = backend.execute(
                        planned.spec, store=store, resume=resume,
                        progress=progress,
                    )
                runs.append(
                    CampaignRun(planned.role, planned.spec, result, store)
                )
                lifecycle.metrics.update(
                    run_metrics([run.result for run in runs])
                )
        handle = plan.handle(experiment, runs)
        handle._telemetry = {
            "enabled": lifecycle.enabled,
            "run_id": lifecycle.trace_run,
            "trace_path": (
                str(lifecycle.trace_path) if lifecycle.trace_path else None
            ),
            "wall_s": lifecycle.wall_s,
        }
        return handle

    def attach(self, experiment: Experiment | Path | str) -> ResultHandle:
        """A lazy result view over the experiment's stores — no execution.

        Every planned point whose content hash has a stored record is
        surfaced (counted as cached); points never run are simply
        absent.  Use this to re-analyse a finished (or half-finished)
        experiment without touching the grid.
        """
        experiment = self._coerce(experiment)
        plan = _PLANNERS[experiment.kind](experiment)
        runs = []
        for planned in plan.campaigns:
            store = self._store_for(planned.store_name)
            stored = store.load() if store is not None else {}
            result = CampaignResult(spec_name=planned.spec.name)
            for point in planned.spec.expand():
                record = stored.get(point.content_hash())
                if record is not None:
                    result.records.append(record)
                    result.n_cached += 1
                    if record.get("status") == "failed":
                        result.n_failed += 1
            runs.append(
                CampaignRun(planned.role, planned.spec, result, store)
            )
        return plan.handle(experiment, runs)

    def describe(self, experiment: Experiment | Path | str) -> str:
        """A human-readable plan: campaigns, grid sizes, store targets."""
        experiment = self._coerce(experiment)
        backend_name, workers = self.resolve_backend(experiment)
        campaigns = self.plan(experiment)
        kind = experiment.kind
        if kind == "figure":
            kind = f"figure/{experiment.params.KIND}"
        lines = [
            f"experiment {experiment.name!r} — kind={kind}, "
            f"schema v{experiment.version}, "
            f"hash {experiment.content_hash()[:12]}",
            f"  backend: {backend_name}, {workers} worker(s)"
            + (f", seed {experiment.seed}" if experiment.seed is not None
               else ""),
        ]
        total = 0
        for planned in campaigns:
            n_points = len(planned.spec.expand())
            total += n_points
            target = (
                str(self._store_for(planned.store_name).path)
                if planned.store_name
                else "(not persisted)"
            )
            lines.append(
                f"  [{planned.role}] campaign {planned.spec.name!r}: "
                f"kind={planned.spec.kind}, {n_points} points -> {target}"
            )
        lines.append(f"  total: {total} points")
        return "\n".join(lines)
