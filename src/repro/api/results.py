"""The uniform result surface of the experiment API.

Every :meth:`repro.api.session.Session.run` returns a
:class:`ResultHandle`, whatever the experiment's kind — replacing the
four ad-hoc return shapes the subsystems historically exposed
(``Fig2Result``/``Fig4Result`` objects, ``CampaignResult`` lists,
``MissionResult`` dataclasses, ``FleetResult`` rows).  The handle is a
thin view over the campaign records the run produced (or, via
:meth:`ResultHandle.open`-style session attachment, over records
reloaded lazily from the experiment's result stores without executing
anything):

* :meth:`ResultHandle.frame` — flat analysis rows (axis coordinates
  joined with scalar result metrics), ready for ad-hoc filtering or a
  DataFrame constructor;
* :meth:`ResultHandle.pareto` — a Pareto frontier over those rows via
  :func:`repro.campaign.analysis.pareto_frontier`;
* :meth:`ResultHandle.summary` — a JSON-safe, kind-aware summary dict;
* :meth:`ResultHandle.result` — the kind's rich result object
  (``Fig4Result``, trade-off policies, mission results, fleet
  summaries), for callers that want the historical shapes back.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..campaign.analysis import pareto_frontier
from ..campaign.runner import CampaignResult
from ..campaign.spec import CampaignSpec
from ..campaign.store import ResultStore
from .schema import Experiment

__all__ = ["CampaignRun", "ResultHandle"]


@dataclass
class CampaignRun:
    """One executed (or attached) campaign of an experiment's plan.

    Attributes:
        role: the campaign's role within the experiment (``"main"`` for
            single-campaign kinds; sweeps and trade-offs use
            ``"quality"``/``"energy"``).
        spec: the campaign spec that was run.
        result: the campaign outcome (records in grid order).
        store: the backing result store, when the campaign persisted.
    """

    role: str
    spec: CampaignSpec
    result: CampaignResult
    store: ResultStore | None = None


class ResultHandle:
    """Uniform, lazily-reducing view of one experiment's results.

    Built by the session; not normally constructed by hand.  All
    record-level accessors are cheap; :meth:`summary` and
    :meth:`result` call the kind's reducer on first use and memoize.
    """

    def __init__(
        self,
        experiment: Experiment,
        runs: list[CampaignRun],
        reducer: Callable[["ResultHandle"], Any] | None = None,
        summariser: Callable[["ResultHandle"], dict] | None = None,
        framer: Callable[["ResultHandle"], list[dict]] | None = None,
    ) -> None:
        self.experiment = experiment
        self.runs = list(runs)
        self._reducer = reducer
        self._summariser = summariser
        self._framer = framer
        self._result: Any = None
        self._reduced = False
        self._summary: dict | None = None
        self._telemetry: dict[str, Any] | None = None

    # -- record-level access ----------------------------------------------

    @property
    def records(self) -> list[dict]:
        """All point records across the experiment's campaigns."""
        return [rec for run in self.runs for rec in run.result.records]

    def ok_records(self) -> list[dict]:
        """Records of successfully evaluated points only."""
        return [rec for rec in self.records if rec.get("status") == "ok"]

    def failures(self) -> list[dict]:
        """Records of failed points (with their ``error`` text)."""
        return [rec for rec in self.records if rec.get("status") == "failed"]

    @property
    def ok(self) -> bool:
        """True when every point of every campaign succeeded."""
        return not self.failures()

    @property
    def n_executed(self) -> int:
        """Points evaluated by this run (not satisfied from a store)."""
        return sum(run.result.n_executed for run in self.runs)

    @property
    def n_cached(self) -> int:
        """Points satisfied from the experiment's result stores."""
        return sum(run.result.n_cached for run in self.runs)

    @property
    def n_failed(self) -> int:
        """Points whose evaluator raised."""
        return sum(run.result.n_failed for run in self.runs)

    def campaigns(self, role: str | None = None) -> list[CampaignRun]:
        """The experiment's campaign runs, optionally filtered by role."""
        if role is None:
            return list(self.runs)
        return [run for run in self.runs if run.role == role]

    def point_hashes(self) -> list[str]:
        """Content hashes of every record, in campaign/grid order.

        These are the result-store keys — the golden-equivalence tests
        compare them across entry paths to pin that the API redesign is
        a pure re-plumbing.
        """
        return [rec["hash"] for rec in self.records]

    # -- analysis views ----------------------------------------------------

    def frame(self) -> list[dict]:
        """Flat analysis rows: one dict per successful point.

        By default each row joins the point's identity (``campaign``,
        ``role``, ``kind``, ``hash``) with its axis coordinates and the
        scalar metrics of its result (nested result structures are
        skipped — reach them through :attr:`records`).  Kinds may
        install a richer view: sweep experiments frame the *joined*
        quality/energy rows (``app``/``emt``/``voltage``/``snr_db``/
        ``energy_pj``), the substrate their Pareto frontier is defined
        on; Fig 2 frames one ``app``/``stuck_value``/``position``/
        ``snr_db`` row per plotted value of every app whose records all
        succeeded.  The list is plain data: feed
        it to ``pandas.DataFrame`` or filter it in place.
        """
        if self._framer is not None:
            return self._framer(self)
        rows = []
        for run in self.runs:
            for rec in run.result.records:
                if rec.get("status") != "ok":
                    continue
                row: dict[str, Any] = {
                    "campaign": run.spec.name,
                    "role": run.role,
                    "kind": rec.get("kind"),
                    "hash": rec.get("hash"),
                }
                for key, value in (rec.get("coords") or {}).items():
                    row[key] = value
                for key, value in (rec.get("result") or {}).items():
                    if isinstance(value, (int, float, str, bool)):
                        row[key] = value
                rows.append(row)
        return rows

    def pareto(
        self,
        x_key: str,
        y_key: str,
        minimize_x: bool = True,
        maximize_y: bool = True,
    ) -> list[dict]:
        """Non-dominated :meth:`frame` rows under ``(x_key, y_key)``.

        Rows missing either key are ignored, so a multi-campaign
        experiment (e.g. a sweep's quality + energy grids) can be fed
        whole.  Defaults match
        :func:`repro.campaign.analysis.pareto_frontier`: minimise x,
        maximise y.
        """
        return pareto_frontier(
            self.frame(), x_key, y_key,
            minimize_x=minimize_x, maximize_y=maximize_y,
        )

    # -- kind-aware reductions --------------------------------------------

    def summary(self) -> dict[str, Any]:
        """JSON-safe, kind-aware summary of the run (memoized).

        Always carries the experiment identity and execution counts;
        kinds add their headline reductions (sweep: per-app frontiers
        and operating points; mission: per-policy metrics; cohort:
        population summaries and the tail-statistic frontier).
        """
        if self._summary is None:
            base: dict[str, Any] = {
                "experiment": self.experiment.name,
                "kind": self.experiment.kind,
                "hash": self.experiment.content_hash(),
                "n_points": len(self.records),
                "n_executed": self.n_executed,
                "n_cached": self.n_cached,
                "n_failed": self.n_failed,
            }
            if self._summariser is not None:
                base.update(self._summariser(self))
            self._summary = base
        return dict(self._summary)

    def telemetry(self) -> dict[str, Any]:
        """Run telemetry recorded by the session that produced this handle.

        Keys: ``enabled`` (was the run traced), ``run_id`` (the
        content-hash-keyed trace id), ``trace_path`` (the JSONL sink to
        feed ``repro report``, or ``None``), and ``wall_s`` (the run's
        measured wall time).  An attached (not executed) handle reports
        ``enabled: False`` with no run id.
        """
        if self._telemetry is None:
            return {
                "enabled": False,
                "run_id": None,
                "trace_path": None,
                "wall_s": None,
            }
        return dict(self._telemetry)

    def result(self) -> Any:
        """The kind's rich result object (memoized).

        * ``figure``/``fig2`` -> :class:`repro.exp.fig2.Fig2Result`
        * ``figure``/``fig4`` -> :class:`repro.exp.fig4.Fig4Result`
        * ``figure``/``energy`` -> :class:`repro.exp.energy_table.EnergyAnalysis`
        * ``figure``/``tradeoff`` -> :class:`repro.exp.tradeoff.TradeoffResult`,
          reduced from its quality and energy campaigns' records

        Reducing evaluates no grid point: every number comes from the
        records the plan's campaigns produced or stored.
        * ``sweep`` -> per-app dict of frontier rows and
          :class:`repro.campaign.analysis.OperatingPoint` lists
        * ``mission`` -> list of :class:`repro.runtime.MissionResult`
        * ``cohort`` -> dict of population summaries, survival curves
          and the tail-statistic frontier
        """
        if not self._reduced:
            self._result = (
                self._reducer(self) if self._reducer is not None else None
            )
            self._reduced = True
        return self._result
